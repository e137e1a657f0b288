package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// APIError is a non-2xx response from the service.
type APIError struct {
	Status  int
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s", e.Status, e.Message)
}

// Client talks to a query service. It is safe for concurrent use.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one request, decoding the JSON response into out (unless
// nil) and turning non-2xx statuses into *APIError.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("server: encode request: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	// Drain what the decoders leave unread (the encoder's trailing
	// newline, the chunked terminator): net/http reuses a connection
	// only after its body was read to EOF.
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var apiErr ErrorResponse
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		return &APIError{Status: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("server: decode response: %w", err)
	}
	return nil
}

// Query seeds a session and returns the initial round.
func (c *Client) Query(ctx context.Context, req QueryRequest) (*RoundResponse, error) {
	var out RoundResponse
	if err := c.do(ctx, http.MethodPost, "/v1/query", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ranking fetches the latest round of a session; k > 0 overrides the
// returned top-k length.
func (c *Client) Ranking(ctx context.Context, session string, k int) (*RoundResponse, error) {
	path := "/v1/session/" + session + "/ranking"
	if k > 0 {
		path += fmt.Sprintf("?k=%d", k)
	}
	var out RoundResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Feedback posts labels and returns the re-ranked round.
func (c *Client) Feedback(ctx context.Context, session string, labels []FeedbackLabel) (*RoundResponse, error) {
	var out RoundResponse
	err := c.do(ctx, http.MethodPost, "/v1/session/"+session+"/feedback",
		FeedbackRequest{Labels: labels}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Delete ends a session.
func (c *Client) Delete(ctx context.Context, session string) error {
	return c.do(ctx, http.MethodDelete, "/v1/session/"+session, nil, nil)
}

// CreateClip ingests a synthetic clip into the live catalog.
func (c *Client) CreateClip(ctx context.Context, req CreateClipRequest) (*ClipResponse, error) {
	var out ClipResponse
	if err := c.do(ctx, http.MethodPost, "/v1/clips", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteClip removes a clip from the catalog.
func (c *Client) DeleteClip(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/clips/"+name, nil, nil)
}

// Scatter issues one shard probe against a worker's /v1/scatter —
// the coordinator's scatter leg.
func (c *Client) Scatter(ctx context.Context, req ScatterRequest) (*ScatterResponse, error) {
	var out ScatterResponse
	if err := c.do(ctx, http.MethodPost, "/v1/scatter", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the service metrics.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
