package segment

import (
	"encoding/binary"
	"fmt"

	"milvideo/internal/frame"
)

// The 3×3 binary morphology passes process eight pixels at a time. A
// mask row is read as little-endian 64-bit words, so byte k of the
// word at offset o is pixel o+k, and every output word is
//
//  1. a vertical pass: the OR (dilation) or AND (erosion) of the words
//     at the same offset in the rows above, at and below;
//  2. a horizontal 3-tap pass: that word combined with itself shifted
//     one byte each way, the byte shifted in at either end carried
//     from the neighbouring word (the previous word's last byte, the
//     next word's first);
//  3. a per-byte normalisation: nonzero becomes 0xFF.
//
// Out-of-frame pixels read as 0: a row that ends mid-word is loaded
// zero-padded, the carries past either row end are 0, and a row
// outside the frame is nil. The per-pixel loops these replace live on
// in morph_test.go as the oracles of FuzzMorphology.
//
// Background subtraction (subtractInto) runs over the same words: the
// bytewise |img − bg| ≥ t test needs no neighbours, so the whole frame
// is one run of words.

const (
	low7 = 0x7f7f7f7f7f7f7f7f
	high = 0x8080808080808080
)

// nonzero sets the high bit of every nonzero byte of v and clears all
// other bits. Adding 0x7f to a byte's low seven bits carries into its
// high bit exactly when they are not all zero, and never into the
// next byte.
func nonzero(v uint64) uint64 { return (v&low7 + low7 | v) & high }

// widen turns the high-bit flags of nonzero or less into whole 0xFF
// bytes.
func widen(flags uint64) uint64 { return (flags >> 7) * 0xff }

// less sets the high bit of every byte where x < y, unsigned, and
// clears all other bits. Per byte, r = (x|0x80) − (y&0x7f) borrows
// nothing from the next byte, and its high bit is clear exactly when
// x's low seven bits are below y's. So x < y where the high bits say
// so (x's clear, y's set), or tie and r's high bit is clear.
func less(x, y uint64) uint64 {
	r := (x | high) - (y & low7)
	return (^x&y | ^(x ^ y | r)) & high
}

// load reads the word of row at byte offset o, zero-padded past the
// row's end.
func load(row []byte, o int) uint64 {
	if o+8 <= len(row) {
		return binary.LittleEndian.Uint64(row[o:])
	}
	var v uint64
	for k := len(row) - 1; k >= o; k-- {
		v = v<<8 | uint64(row[k])
	}
	return v
}

// store writes v to row at byte offset o, dropping the bytes past the
// row's end.
func store(row []byte, o int, v uint64) {
	if o+8 <= len(row) {
		binary.LittleEndian.PutUint64(row[o:], v)
		return
	}
	for k := o; k < len(row); k++ {
		row[k] = byte(v)
		v >>= 8
	}
}

// subtractInto writes the foreground mask of img against bg into dst:
// 255 where |img − bg| ≥ t, else 0, exactly as frame.AbsDiffInto
// followed by ThresholdInto. All three must agree in size; every pixel
// of dst is written.
func subtractInto(dst, img, bg *frame.Gray, t uint8) error {
	if img.W != bg.W || img.H != bg.H {
		return fmt.Errorf("segment: size mismatch %dx%d vs %dx%d", img.W, img.H, bg.W, bg.H)
	}
	if dst.W != img.W || dst.H != img.H {
		return fmt.Errorf("segment: size mismatch %dx%d vs %dx%d", dst.W, dst.H, img.W, img.H)
	}
	tt := uint64(t) * 0x0101010101010101
	for o := 0; o < len(img.Pix); o += 8 {
		a, b := load(img.Pix, o), load(bg.Pix, o)
		// Swap the bytes where a < b, so every byte of hi − lo is
		// |a − b| and the 64-bit subtraction borrows across none.
		swap := (a ^ b) & widen(less(a, b))
		diff := (a ^ swap) - (b ^ swap)
		store(dst.Pix, o, widen(^less(diff, tt)&high))
	}
	return nil
}

// Erode applies one pass of 3×3 binary erosion: a pixel survives only
// if its entire 8-neighborhood (and itself) is foreground. Frame
// borders count as background.
func Erode(mask *frame.Gray) *frame.Gray {
	out := frame.NewGray(mask.W, mask.H)
	ErodeInto(out, mask)
	return out
}

// ErodeInto writes one 3×3 erosion pass of mask into dst. dst must
// match mask in size and must not alias it; every pixel is written, so
// a recycled dirty buffer is fine. A pixel is foreground when nonzero
// and comes out as 255 or 0.
func ErodeInto(dst, mask *frame.Gray) {
	w, h := mask.W, mask.H
	for y := 0; y < h; y++ {
		out := dst.Pix[y*w : (y+1)*w]
		if y == 0 || y == h-1 {
			clear(out) // a neighbour row lies outside the frame
			continue
		}
		up := mask.Pix[(y-1)*w : y*w]
		mid := mask.Pix[y*w : (y+1)*w]
		dn := mask.Pix[(y+1)*w : (y+2)*w]
		var prev uint64
		cur := nonzero(load(up, 0)) & nonzero(load(mid, 0)) & nonzero(load(dn, 0))
		for o := 0; o < w; o += 8 {
			next := nonzero(load(up, o+8)) & nonzero(load(mid, o+8)) & nonzero(load(dn, o+8))
			store(out, o, widen(cur&(cur<<8|prev>>56)&(cur>>8|next<<56)))
			prev, cur = cur, next
		}
	}
}

// Dilate applies one pass of 3×3 binary dilation: a pixel becomes
// foreground if any pixel in its 8-neighborhood (or itself) is.
func Dilate(mask *frame.Gray) *frame.Gray {
	out := frame.NewGray(mask.W, mask.H)
	DilateInto(out, mask)
	return out
}

// DilateInto writes one 3×3 dilation pass of mask into dst. dst must
// match mask in size and must not alias it; every pixel is written, so
// a recycled dirty buffer is fine. A pixel is foreground when nonzero
// and comes out as 255 or 0.
func DilateInto(dst, mask *frame.Gray) {
	w, h := mask.W, mask.H
	for y := 0; y < h; y++ {
		var up, dn []byte // nil outside the frame
		if y > 0 {
			up = mask.Pix[(y-1)*w : y*w]
		}
		if y+1 < h {
			dn = mask.Pix[(y+1)*w : (y+2)*w]
		}
		mid := mask.Pix[y*w : (y+1)*w]
		out := dst.Pix[y*w : (y+1)*w]
		// OR keeps a byte nonzero, so one normalisation at the end
		// suffices.
		var prev uint64
		cur := load(up, 0) | load(mid, 0) | load(dn, 0)
		for o := 0; o < w; o += 8 {
			next := load(up, o+8) | load(mid, o+8) | load(dn, o+8)
			store(out, o, widen(nonzero(cur|cur<<8|prev>>56|cur>>8|next<<56)))
			prev, cur = cur, next
		}
	}
}

// Open performs erosion followed by dilation, removing speckle noise
// smaller than the structuring element while approximately preserving
// larger regions.
func Open(mask *frame.Gray) *frame.Gray { return Dilate(Erode(mask)) }

// Close performs dilation followed by erosion, filling pinholes and
// joining fragments separated by a single-pixel gap.
func Close(mask *frame.Gray) *frame.Gray { return Erode(Dilate(mask)) }
