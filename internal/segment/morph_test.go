package segment

import (
	"bytes"
	"math/rand"
	"testing"

	"milvideo/internal/frame"
)

// erodeRef is the per-pixel 3×3 erosion ErodeInto replaced: every one
// of the nine neighbours is read through the bounds-checked At, so
// out-of-frame pixels count as background. It is the oracle of
// FuzzMorphology.
func erodeRef(dst, mask *frame.Gray) {
	for y := 0; y < mask.H; y++ {
		for x := 0; x < mask.W; x++ {
			keep := true
			for dy := -1; dy <= 1 && keep; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if mask.At(x+dx, y+dy) == 0 {
						keep = false
						break
					}
				}
			}
			if keep {
				dst.Pix[y*dst.W+x] = 255
			} else {
				dst.Pix[y*dst.W+x] = 0
			}
		}
	}
}

// dilateRef is the per-pixel 3×3 dilation DilateInto replaced, the
// other oracle of FuzzMorphology.
func dilateRef(dst, mask *frame.Gray) {
	for y := 0; y < mask.H; y++ {
		for x := 0; x < mask.W; x++ {
			hit := false
			for dy := -1; dy <= 1 && !hit; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if mask.At(x+dx, y+dy) != 0 {
						hit = true
						break
					}
				}
			}
			if hit {
				dst.Pix[y*dst.W+x] = 255
			} else {
				dst.Pix[y*dst.W+x] = 0
			}
		}
	}
}

// subtractRef is the two-pass background subtraction subtractInto
// replaced: |img − bg| into a scratch frame, then the threshold.
func subtractRef(dst, img, bg *frame.Gray, t uint8) error {
	diff := frame.NewGray(img.W, img.H)
	if err := frame.AbsDiffInto(diff, img, bg); err != nil {
		return err
	}
	diff.ThresholdInto(dst, t)
	return nil
}

// randomPix returns n pixels that are nonzero with probability
// density/256, drawing the nonzero values from vals.
func randomPix(rng *rand.Rand, n, density int, vals ...byte) []byte {
	pix := make([]byte, n)
	for i := range pix {
		if rng.Intn(256) < density {
			pix[i] = vals[rng.Intn(len(vals))]
		}
	}
	return pix
}

// FuzzMorphology requires the word-parallel passes to equal the
// per-pixel oracles above on every input: ErodeInto and DilateInto
// against erodeRef and dilateRef on the mask, and subtractInto against
// subtractRef with the mask as the image. The fuzzer picks the size
// (1–64 × 1–64), the mask and background pixels (bytes past the data
// are 0, so any value, not just 0 and 255, can be foreground), the
// threshold and the byte the destination is dirty with. The seed
// corpus is the table `go test` runs: 1×1, 1×N, N×1 and 2×2 frames,
// widths on and off a multiple of 8, sparse and dense masks, and
// values other than 255.
func FuzzMorphology(f *testing.F) {
	for i, c := range []struct {
		w, h, density int
		vals          []byte
	}{
		{1, 1, 256, []byte{255}},
		{1, 1, 256, []byte{1}},
		{1, 1, 0, []byte{255}},
		{2, 2, 256, []byte{255}},
		{2, 2, 160, []byte{3, 255}},
		{1, 17, 200, []byte{255}},
		{17, 1, 200, []byte{128}},
		{3, 3, 256, []byte{1, 2, 4, 8, 16, 32, 64, 128}},
		{8, 8, 230, []byte{255}},
		{9, 5, 230, []byte{255, 7}},
		{16, 4, 200, []byte{255}},
		{15, 9, 220, []byte{0x80, 0x7f}},
		{23, 11, 180, []byte{255}},
		{40, 30, 40, []byte{255}},
		{40, 30, 240, []byte{1, 0x80, 255}},
		{63, 17, 250, []byte{255}},
		{64, 64, 128, []byte{255, 0x01}},
	} {
		rng := rand.New(rand.NewSource(int64(i)))
		mask := randomPix(rng, c.w*c.h, c.density, c.vals...)
		bg := randomPix(rng, c.w*c.h, 256, 0x00, 0x01, 0x1c, 0x7f, 0x80, 0xe3, 0xfe, 0xff)
		f.Add(uint8(c.w), uint8(c.h), mask, bg, uint8(i*15), uint8(0xAA+i))
	}
	f.Fuzz(func(t *testing.T, w8, h8 uint8, data, bgData []byte, thresh, dirty uint8) {
		w, h := int(w8)%64, int(h8)%64
		if w == 0 {
			w = 64
		}
		if h == 0 {
			h = 64
		}
		mask := frame.NewGray(w, h)
		copy(mask.Pix, data)
		bg := frame.NewGray(w, h)
		copy(bg.Pix, bgData)
		want := frame.NewGray(w, h)
		got := frame.NewGray(w, h)
		check := func(name string) {
			t.Helper()
			if !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("%s %dx%d, threshold %d, dst dirty with %#x: word-parallel pass differs from the per-pixel oracle\nmask %v\nbg   %v\ngot  %v\nwant %v",
					name, w, h, thresh, dirty, mask.Pix, bg.Pix, got.Pix, want.Pix)
			}
		}
		for _, pass := range []struct {
			name      string
			fast, ref func(dst, mask *frame.Gray)
		}{
			{"erode", ErodeInto, erodeRef},
			{"dilate", DilateInto, dilateRef},
		} {
			got.Fill(dirty)
			want.Fill(^dirty)
			pass.ref(want, mask)
			pass.fast(got, mask)
			check(pass.name)
		}
		got.Fill(dirty)
		want.Fill(^dirty)
		if err := subtractRef(want, mask, bg, thresh); err != nil {
			t.Fatal(err)
		}
		if err := subtractInto(got, mask, bg, thresh); err != nil {
			t.Fatal(err)
		}
		check("subtract")
	})
}

// TestSubtractIntoAllPairs runs subtractInto over every (image,
// background) byte pair, as one 256×256 frame, at thresholds around
// each bit boundary.
func TestSubtractIntoAllPairs(t *testing.T) {
	img, bg := frame.NewGray(256, 256), frame.NewGray(256, 256)
	for i := range img.Pix {
		img.Pix[i], bg.Pix[i] = uint8(i), uint8(i>>8)
	}
	got, want := frame.NewGray(256, 256), frame.NewGray(256, 256)
	for _, th := range []uint8{0, 1, 2, 28, 127, 128, 129, 254, 255} {
		if err := subtractRef(want, img, bg, th); err != nil {
			t.Fatal(err)
		}
		if err := subtractInto(got, img, bg, th); err != nil {
			t.Fatal(err)
		}
		for i := range got.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("threshold %d: |%d − %d| gave %d, want %d", th, img.Pix[i], bg.Pix[i], got.Pix[i], want.Pix[i])
			}
		}
	}
	if err := subtractInto(got, img, frame.NewGray(2, 2), 1); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if err := subtractInto(frame.NewGray(2, 2), img, bg, 1); err == nil {
		t.Fatal("destination size mismatch accepted")
	}
}
