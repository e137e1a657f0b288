// Package segment implements the vehicle segmentation stage of the
// pipeline (paper §3.1): background learning and subtraction, binary
// morphology, connected-component extraction (yielding the MBR and
// centroid of each vehicle segment), and the SPCPE algorithm —
// Simultaneous Partition and Class Parameter Estimation — used to
// refine candidate regions, following the approach of the paper's
// reference [20].
package segment

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"milvideo/internal/frame"
)

// ErrNoFrames is returned when background learning receives no input.
var ErrNoFrames = errors.New("segment: no frames to learn background from")

// learnWorkers overrides the background-learning worker count; 0 means
// runtime.GOMAXPROCS(0). Tests force specific values to prove the
// parallel path matches the serial one.
var learnWorkers = 0

// bgStripPixels is how many pixels one histogram strip covers. The
// per-strip working set is bgStripPixels·256 uint16 counters (512 KiB),
// small enough to stay cache-resident while a strip's frames stream by.
const bgStripPixels = 1024

// LearnBackground estimates the static background as the per-pixel
// temporal median over a sample of the provided frames. sample gives
// the stride between inspected frames (1 = every frame); the median is
// robust against vehicles passing through a pixel in a minority of
// samples.
//
// Frames are 8-bit, so the median is computed exactly from a 256-bin
// histogram per pixel — O(frames + 256) per pixel instead of a sort —
// and pixel strips are processed concurrently (each pixel is
// independent, so the result is identical to the serial computation
// and to the sort-per-pixel LearnBackgroundRef of the tests).
func LearnBackground(frames []*frame.Gray, sample int) (*frame.Gray, error) {
	picked, bg, err := pickFrames(frames, sample)
	if err != nil {
		return nil, err
	}
	if len(picked) > 0xFFFF {
		// The uint16 histogram counters would overflow; such sample
		// counts never occur in practice, so take the sort path.
		medianSortAll(picked, bg.Pix)
		return bg, nil
	}
	total := len(bg.Pix)
	strips := (total + bgStripPixels - 1) / bgStripPixels
	workers := learnWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > strips {
		workers = strips
	}
	if workers <= 1 {
		medianStrips(picked, bg.Pix, 0, strips, newBGScratch(len(picked)))
		return bg, nil
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := newBGScratch(len(picked))
			for {
				s := int(atomic.AddInt64(&next, 1)) - 1
				if s >= strips {
					return
				}
				medianStrips(picked, bg.Pix, s, s+1, scratch)
			}
		}()
	}
	wg.Wait()
	return bg, nil
}

// pickFrames samples and validates the input frames and allocates the
// output background frame.
func pickFrames(frames []*frame.Gray, sample int) ([]*frame.Gray, *frame.Gray, error) {
	if len(frames) == 0 {
		return nil, nil, ErrNoFrames
	}
	if sample < 1 {
		sample = 1
	}
	var picked []*frame.Gray
	for i := 0; i < len(frames); i += sample {
		picked = append(picked, frames[i])
	}
	w, h := picked[0].W, picked[0].H
	for i, f := range picked {
		if f.W != w || f.H != h {
			return nil, nil, fmt.Errorf("segment: frame %d size %dx%d, want %dx%d", i*sample, f.W, f.H, w, h)
		}
	}
	return picked, frame.NewGray(w, h), nil
}

// bgScratch holds one worker's reusable buffers.
type bgScratch struct {
	vals   []uint8  // insertion-sort buffer (small sample counts)
	counts []uint16 // per-pixel histograms (one strip's worth)
}

func newBGScratch(n int) *bgScratch {
	s := &bgScratch{}
	if n <= 12 {
		s.vals = make([]uint8, n)
	} else {
		s.counts = make([]uint16, bgStripPixels*256)
	}
	return s
}

// medianStrips fills out[strip*bgStripPixels : ...] for strips
// [s0, s1) with the per-pixel temporal median over picked.
func medianStrips(picked []*frame.Gray, out []uint8, s0, s1 int, scratch *bgScratch) {
	n := len(picked)
	// For tiny sample counts an insertion sort into a reused buffer
	// beats building histograms; both are exact.
	if n <= 12 {
		vals := scratch.vals
		lo, hi := s0*bgStripPixels, s1*bgStripPixels
		if hi > len(out) {
			hi = len(out)
		}
		for p := lo; p < hi; p++ {
			for i, f := range picked {
				v := f.Pix[p]
				j := i
				for j > 0 && vals[j-1] > v {
					vals[j] = vals[j-1]
					j--
				}
				vals[j] = v
			}
			out[p] = vals[n/2]
		}
		return
	}
	counts := scratch.counts
	for s := s0; s < s1; s++ {
		lo := s * bgStripPixels
		hi := lo + bgStripPixels
		if hi > len(out) {
			hi = len(out)
		}
		clear(counts)
		for _, f := range picked {
			pix := f.Pix[lo:hi]
			for i, v := range pix {
				counts[i<<8|int(v)]++
			}
		}
		// The upper-middle order statistic (index n/2, 0-based) is the
		// smallest value whose cumulative count reaches n/2 + 1.
		target := uint32(n/2 + 1)
		for i := 0; i < hi-lo; i++ {
			hist := counts[i<<8 : i<<8+256]
			cum := uint32(0)
			for v, c := range hist {
				cum += uint32(c)
				if cum >= target {
					out[lo+i] = uint8(v)
					break
				}
			}
		}
	}
}

// medianSortAll computes every pixel's temporal median by sorting a
// reused gather buffer. LearnBackground takes it when its histogram
// counters would overflow; the tests' LearnBackgroundRef takes it
// always.
func medianSortAll(picked []*frame.Gray, out []uint8) {
	vals := make([]uint8, len(picked))
	for p := range out {
		for i, f := range picked {
			vals[i] = f.Pix[p]
		}
		out[p] = median(vals)
	}
}

// median returns the middle order statistic of vals (upper middle for
// even counts). vals is modified.
func median(vals []uint8) uint8 {
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals[len(vals)/2]
}

// Subtract produces the binary foreground mask of img against the
// background: pixels whose absolute difference meets thresh become
// foreground (255).
func Subtract(img, bg *frame.Gray, thresh uint8) (*frame.Gray, error) {
	out := frame.NewGray(img.W, img.H)
	if err := subtractInto(out, img, bg, thresh); err != nil {
		return nil, err
	}
	return out, nil
}
