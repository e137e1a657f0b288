package server

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestClientReusesConnections: a Client drains every response body
// before closing it, so a keep-alive connection survives responses
// whose JSON decode stops short of the chunked terminator. Five
// sessions (query, feedback, delete) through one transport must open
// exactly one connection. Scale 53 (2,544 bags, ~14 KB rankings) is
// the smallest catalog at which an undrained body lost the connection
// in every run (11 connections for the 15 requests); smaller catalogs
// mostly find the terminator already buffered.
func TestClientReusesConnections(t *testing.T) {
	rec, err := ScaledDemoRecord(1, 53)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{DB: testCatalog(t, rec)})
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	tr := &http.Transport{}
	t.Cleanup(func() {
		tr.CloseIdleConnections()
		ts.Close()
		srv.Close()
	})
	client := &Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: tr}}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		resp, err := client.Query(ctx, QueryRequest{Clip: rec.Name, TopK: 10})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Feedback(ctx, resp.Session, []FeedbackLabel{{VS: resp.TopK[0].VS, Relevant: true}}); err != nil {
			t.Fatal(err)
		}
		if err := client.Delete(ctx, resp.Session); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("15 requests over one transport opened %d connections, want 1", n)
	}
}
