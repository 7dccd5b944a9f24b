package core

import (
	"encoding/binary"
	"math"
	"testing"

	"sparker/internal/collective"
)

// ownedFrame hand-builds an owned-segments frame: count, then each
// (index, body) pair with its length prefix.
func ownedFrame(count int, segs ...ownedSeg) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(count))
	for _, s := range segs {
		b = binary.LittleEndian.AppendUint32(b, uint32(s.idx))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.body)))
		b = append(b, s.body...)
	}
	return b
}

type ownedSeg struct {
	idx  int
	body []byte
}

func f64Body(vs ...float64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// TestOwnedFrameRoundTrip: the frame a rank encodes gathers back to the
// concatenation of its segments, on the chunked (in-place) path and on
// the generic decode-then-ConcatOp path alike.
func TestOwnedFrameRoundTrip(t *testing.T) {
	owned := map[int][]float64{2: {5}, 0: {1, 2}, 1: {}, 3: {3, 4, math.Copysign(0, -1)}}
	want := []float64{1, 2, 5, 3, 4, math.Copysign(0, -1)}
	f64 := collective.F64Ops()
	for name, ops := range map[string]collective.Ops[[]float64]{
		"chunked": f64,
		"generic": serdeOps[[]float64](AddF64),
	} {
		frame := encodeOwned(owned, ops)
		// Split the four segments across two rank frames.
		lo := encodeOwned(map[int][]float64{0: owned[0], 3: owned[3]}, ops)
		hi := encodeOwned(map[int][]float64{1: owned[1], 2: owned[2]}, ops)
		for _, payloads := range [][][]byte{{frame}, {hi, lo}} {
			got, err := gatherOwned(payloads, 4, ops, ConcatSlices[float64])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: got %v want %v", name, got, want)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: got %v want %v", name, got, want)
				}
			}
		}
	}
	// The chunked frame carries raw element words: exactly 8 bytes of
	// framing per segment on top of the count.
	if got, wantLen := len(encodeOwned(owned, f64)), 4+4*8+8*len(want); got != wantLen {
		t.Fatalf("chunked frame is %d bytes, want %d", got, wantLen)
	}
}

// TestOwnedFrameRejectsMalformed: every malformed-frame class fails the
// gather with an error.
func TestOwnedFrameRejectsMalformed(t *testing.T) {
	good := ownedFrame(2, ownedSeg{0, f64Body(1)}, ownedSeg{1, f64Body(2, 3)})
	cases := map[string][][]byte{
		"empty":            {{}},
		"short count":      {{2, 0}},
		"truncated header": {good[:10]},
		"truncated body":   {good[:len(good)-1]},
		"count too high":   {ownedFrame(3, ownedSeg{0, f64Body(1)}, ownedSeg{1, f64Body(2, 3)})},
		"trailing bytes":   {append(append([]byte(nil), good...), 0)},
		"count too low":    {ownedFrame(1, ownedSeg{0, f64Body(1)}, ownedSeg{1, f64Body(2, 3)})},
		"duplicate index":  {ownedFrame(2, ownedSeg{0, f64Body(1)}, ownedSeg{0, f64Body(2, 3)})},
		"duplicate across": {ownedFrame(1, ownedSeg{0, f64Body(1)}), good},
		"missing index":    {ownedFrame(1, ownedSeg{1, f64Body(2, 3)})},
		"out of range":     {ownedFrame(2, ownedSeg{0, f64Body(1)}, ownedSeg{2, f64Body(2, 3)})},
		"huge index":       {ownedFrame(2, ownedSeg{0, f64Body(1)}, ownedSeg{math.MaxUint32, f64Body(2)})},
		"ragged element":   {ownedFrame(2, ownedSeg{0, f64Body(1)}, ownedSeg{1, f64Body(2)[:7]})},
		"length past end": {binary.LittleEndian.AppendUint32(
			binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 1), 0), math.MaxUint32)},
	}
	if _, err := gatherOwned([][]byte{good}, 2, collective.F64Ops(), ConcatSlices[float64]); err != nil {
		t.Fatalf("well-formed frame rejected: %v", err)
	}
	for name, payloads := range cases {
		if _, err := gatherOwned(payloads, 2, collective.F64Ops(), ConcatSlices[float64]); err == nil {
			t.Errorf("%s: gather accepted a malformed frame", name)
		}
	}
}

// FuzzOwnedFrame feeds arbitrary bytes to the driver's gather decoder,
// the first reader of a ring rank's result frame: malformed input must
// come back as an error, never a panic, on both decode paths, and an
// accepted frame must account for every byte it carries.
func FuzzOwnedFrame(f *testing.F) {
	f64 := collective.F64Ops()
	generic := serdeOps[[]float64](AddF64)
	f.Add(encodeOwned(map[int][]float64{0: {1, 2}, 1: {3}}, f64), uint8(2))
	f.Add(encodeOwned(map[int][]float64{1: {-1}, 0: {}}, generic), uint8(2))
	f.Fuzz(func(t *testing.T, frame []byte, segs uint8) {
		nSegs := int(segs % 16)
		got, err := gatherOwned([][]byte{frame}, nSegs, f64, ConcatSlices[float64])
		if err == nil && 4+8*nSegs+8*len(got) != len(frame) {
			t.Fatalf("accepted a %d-byte frame as %d segments of %d elements", len(frame), nSegs, len(got))
		}
		_, _ = gatherOwned([][]byte{frame}, nSegs, generic, ConcatSlices[float64])
	})
}
