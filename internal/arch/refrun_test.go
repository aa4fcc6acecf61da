package arch

import (
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
)

func TestRefRunEnd(t *testing.T) {
	page := VirtAddr(PageSize)
	cases := []struct {
		r    RefRun
		want VirtAddr
	}{
		{RefRun{VA: 0x8000, Stride: 4, Count: 4}, 0x8010},
		{RefRun{VA: 0x8000, Stride: 0, Count: 100}, 0x8000},
		// Stride larger than a page.
		{RefRun{VA: 0x8000, Stride: 3 * page, Count: 2}, 0x8000 + 6*page},
		// Descending runs wrap two's-complement.
		{RefRun{VA: 0x8000, Stride: -page, Count: 8}, 0x8000 - 8*page},
		// Wrap through zero: End is still VA + Count*Stride mod 2^32.
		{RefRun{VA: 0x1000, Stride: -page, Count: 2}, 0x1000 - 2*page},
	}
	for _, c := range cases {
		if got := c.r.End(); got != c.want {
			t.Errorf("%+v.End() = %#x, want %#x", c.r, got, c.want)
		}
	}
}

func TestRefStreamCoalesces(t *testing.T) {
	var s RefStream
	// Three sequential fetches: one run, stride fixed by the second.
	s.Add(0x8000, AccessFetch, 0)
	s.Add(0x8004, AccessFetch, 0)
	s.Add(0x8008, AccessFetch, 0)
	// A kind change breaks the run even at a continuing address.
	s.Add(0x800C, AccessRead, 0)
	// Page-stride writes coalesce too.
	s.Add(0x10000, AccessWrite, 0)
	s.Add(0x10000+VirtAddr(PageSize), AccessWrite, 0)
	s.Add(0x10000+2*VirtAddr(PageSize), AccessWrite, 0)
	want := []RefRun{
		{VA: 0x8000, Stride: 4, Count: 3, Kind: AccessFetch, Block: 1},
		{VA: 0x800C, Stride: 0, Count: 1, Kind: AccessRead, Block: 1},
		{VA: 0x10000, Stride: VirtAddr(PageSize), Count: 3, Kind: AccessWrite, Block: 1},
	}
	if !reflect.DeepEqual(s.Runs(), want) {
		t.Errorf("runs = %+v\nwant   %+v", s.Runs(), want)
	}
	if s.Len() != 7 {
		t.Errorf("Len = %d, want 7", s.Len())
	}
}

func TestRefStreamStrideMismatchStartsNewRun(t *testing.T) {
	var s RefStream
	s.Add(0x8000, AccessFetch, 0)
	s.Add(0x8004, AccessFetch, 0) // stride now 4
	s.Add(0x8010, AccessFetch, 0) // breaks the pattern
	if n := len(s.Runs()); n != 2 {
		t.Fatalf("got %d runs, want 2: %+v", n, s.Runs())
	}
	if r := s.Runs()[1]; r.VA != 0x8010 || r.Count != 1 {
		t.Errorf("second run = %+v, want singleton at 0x8010", r)
	}
}

func TestRefStreamDescendingAndLargeStride(t *testing.T) {
	var s RefStream
	page := VirtAddr(PageSize)
	// Descending stack touches.
	s.Add(0x9000, AccessWrite, 0)
	s.Add(0x9000-page, AccessWrite, 0)
	s.Add(0x9000-2*page, AccessWrite, 0)
	// Stride larger than a page.
	s.Add(0x100000, AccessRead, 0)
	s.Add(0x100000+3*page, AccessRead, 0)
	s.Add(0x100000+6*page, AccessRead, 0)
	want := []RefRun{
		{VA: 0x9000, Stride: -page, Count: 3, Kind: AccessWrite, Block: 1},
		{VA: 0x100000, Stride: 3 * page, Count: 3, Kind: AccessRead, Block: 1},
	}
	if !reflect.DeepEqual(s.Runs(), want) {
		t.Errorf("runs = %+v\nwant   %+v", s.Runs(), want)
	}
}

func TestRefStreamBlockNormalization(t *testing.T) {
	var s RefStream
	s.Add(0x8000, AccessFetch, -3) // block < 1 normalizes to 1
	s.Add(0x9000, AccessRead, 16)  // block ignored for non-fetches
	s.Add(0xA000, AccessFetch, 16) // kept for fetches
	s.Add(0xB000, AccessFetch, 64) // block change breaks the run
	for i, wantBlock := range []int{1, 1, 16, 64} {
		if got := s.Runs()[i].Block; got != wantBlock {
			t.Errorf("run %d Block = %d, want %d", i, got, wantBlock)
		}
	}
	if n := len(s.Runs()); n != 4 {
		t.Errorf("got %d runs, want 4", n)
	}
}

func TestRefStreamAddRun(t *testing.T) {
	var s RefStream
	page := VirtAddr(PageSize)
	s.AddRun(RefRun{VA: 0x8000, Stride: page, Count: 0, Kind: AccessRead})  // empty: dropped
	s.AddRun(RefRun{VA: 0x8000, Stride: page, Count: -5, Kind: AccessRead}) // negative: dropped
	if len(s.Runs()) != 0 {
		t.Fatalf("non-positive runs were kept: %+v", s.Runs())
	}
	s.AddRun(RefRun{VA: 0x8000, Stride: page, Count: 4, Kind: AccessRead, Block: 7})
	if s.Runs()[0].Block != 1 {
		t.Errorf("Block not normalized for a read run: %+v", s.Runs()[0])
	}
	// A run continuing the previous pattern merges.
	s.AddRun(RefRun{VA: 0x8000 + 4*page, Stride: page, Count: 3, Kind: AccessRead})
	if !reflect.DeepEqual(s.Runs(), []RefRun{
		{VA: 0x8000, Stride: page, Count: 7, Kind: AccessRead, Block: 1},
	}) {
		t.Errorf("continuing run did not merge: %+v", s.Runs())
	}
	// A gap starts a new run.
	s.AddRun(RefRun{VA: 0x8000 + 9*page, Stride: page, Count: 2, Kind: AccessRead})
	if n := len(s.Runs()); n != 2 {
		t.Errorf("got %d runs, want 2: %+v", n, s.Runs())
	}
}

func TestRefStreamReset(t *testing.T) {
	var s RefStream
	s.Add(0x8000, AccessFetch, 0)
	s.Add(0x8004, AccessFetch, 0)
	s.Reset()
	if s.Len() != 0 || len(s.Runs()) != 0 {
		t.Fatalf("Reset left %d refs", s.Len())
	}
	// The stream is reusable, and a post-Reset reference must not extend
	// the pre-Reset run.
	s.Add(0x8008, AccessRead, 0)
	if !reflect.DeepEqual(s.Runs(), []RefRun{{VA: 0x8008, Stride: 0, Count: 1, Kind: AccessRead, Block: 1}}) {
		t.Errorf("post-Reset runs = %+v", s.Runs())
	}
}

// FuzzRefStream feeds an arbitrary sequence of Add and AddRun calls to a
// RefStream and checks that expanding its runs reproduces the sequence
// of references, with only Block normalized (to 1 for reads, writes and
// blocks below 1). Each op takes 3 input bytes (Add) or 6 (AddRun):
//
//	op      bit 0 AddRun, bits 1-2 kind (mod 3), bits 3-7 block+4
//	delta   int16: the VA is the previous op's VA plus delta, so
//	        patterns continue often and any VA is reachable by wrapping
//	stride  int16 (AddRun only)
//	count   int8 (AddRun only; zero and negative counts are empty runs)
func FuzzRefStream(f *testing.F) {
	type ref struct {
		va    VirtAddr
		kind  AccessKind
		block int
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s RefStream
		var want []ref
		var va VirtAddr
		for len(data) >= 3 {
			op := data[0]
			va += VirtAddr(int16(binary.LittleEndian.Uint16(data[1:])))
			kind := AccessKind(((op >> 1) & 3) % 3)
			block := int(op>>3) - 4
			norm := block
			if norm < 1 || kind != AccessFetch {
				norm = 1
			}
			if op&1 == 0 {
				s.Add(va, kind, block)
				want = append(want, ref{va, kind, norm})
				data = data[3:]
				continue
			}
			if len(data) < 6 {
				break
			}
			stride := VirtAddr(int16(binary.LittleEndian.Uint16(data[3:])))
			count := int(int8(data[5]))
			s.AddRun(RefRun{VA: va, Stride: stride, Count: count, Kind: kind, Block: block})
			for i := 0; i < count; i++ {
				want = append(want, ref{va + VirtAddr(i)*stride, kind, norm})
			}
			data = data[6:]
		}
		var got []ref
		for _, r := range s.Runs() {
			if r.Count <= 0 {
				t.Fatalf("stream kept an empty run %+v", r)
			}
			for i := 0; i < r.Count; i++ {
				got = append(got, ref{r.VA + VirtAddr(i)*r.Stride, r.Kind, r.Block})
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("expanded runs diverge from the added references\nruns: %+v\ngot:  %+v\nwant: %+v", s.Runs(), got, want)
		}
		if s.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(want))
		}
	})
}
