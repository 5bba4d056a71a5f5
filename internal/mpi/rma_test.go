package mpi

import (
	"bytes"
	"strings"
	"testing"
)

// putBytes is a PutGather fill writing a constant byte.
func putBytes(v byte) func(dst []byte) {
	return func(dst []byte) {
		for i := range dst {
			dst[i] = v
		}
	}
}

// TestWinMemoryTracksTouchedExtent pins the per-slot window memory: a
// slot is backed only over the extent its rank touched, growth preserves the
// bytes already held, untouched bytes read as zero, and a slot grows by
// doubling (O(log) re-backings) without ever exceeding the slot.
func TestWinMemoryTracksTouchedExtent(t *testing.T) {
	const slot = 1 << 16
	_, err := Run(testConfig(2, 1), func(c *Comm) {
		w := c.WinCreate(2, slot)
		put := func(off, n int64, v byte) {
			if c.Rank() == 1 {
				w.PutGather(0, off, n, putBytes(v))
			}
			w.Fence()
		}
		expect := func(what string, want int64) {
			if c.Rank() == 0 {
				if got := w.Allocated(0); got != want {
					t.Errorf("%s: allocated %d bytes, want %d", what, got, want)
				}
			}
		}
		// Phantom traffic allocates nothing.
		if c.Rank() == 1 {
			w.PutAsync(0, 0, slot, nil)
		}
		w.FenceAfter(0)
		expect("phantom put", 0)

		// First touch backs exactly the put, in slot 1 only.
		put(slot+1000, 100, 0xAA)
		expect("first put", 100)
		// A put above the extent backs the union [1000, 5200).
		put(slot+5000, 200, 0xBB)
		expect("upward growth", 4200)
		// A put inside the extent moves nothing.
		put(slot+1200, 10, 0xCC)
		expect("inner put", 4200)
		// A put below doubles the backing, clamped at the slot's start.
		put(slot, 10, 0xDD)
		expect("downward growth", 8400)
		if c.Rank() == 0 {
			got := w.Local(slot, 5200)
			want := make([]byte, 5200)
			for _, wr := range []struct {
				off, n int
				v      byte
			}{{1000, 100, 0xAA}, {5000, 200, 0xBB}, {1200, 10, 0xCC}, {0, 10, 0xDD}} {
				copy(want[wr.off:wr.off+wr.n], bytes.Repeat([]byte{wr.v}, wr.n))
			}
			if !bytes.Equal(got, want) {
				t.Error("slot 1 bytes not preserved across growth (or untouched bytes not zero)")
			}
			if w.Allocated(0) != 8400 {
				t.Errorf("Local within the extent re-backed the slot: %d bytes", w.Allocated(0))
			}
			// Slot 0 was never touched: a local read backs and zeroes it.
			for i, b := range w.Local(0, 64) {
				if b != 0 {
					t.Fatalf("untouched slot 0 byte %d reads %#x", i, b)
				}
			}
			if got := w.Allocated(0); got != 8400+64 {
				t.Errorf("after slot-0 read: allocated %d, want %d", got, 8400+64)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Ascending 1 KiB puts (an aggregator's rounds filling its buffer) must
	// re-back the slot only O(log) times and end exactly at the slot size.
	_, err = Run(testConfig(2, 1), func(c *Comm) {
		w := c.WinCreate(1, slot)
		sizes := map[int64]bool{}
		for off := int64(0); off < slot; off += 1 << 10 {
			if c.Rank() == 1 {
				w.PutGather(0, off, 1<<10, putBytes(byte(off>>10)))
			}
			w.Fence()
			sizes[w.Allocated(0)] = true
		}
		if got := w.Allocated(0); got != slot {
			t.Errorf("full slot backs %d bytes, want %d", got, slot)
		}
		if len(sizes) > 7 { // 1K, 2K, ..., 64K
			t.Errorf("slot re-backed %d times, want at most 7", len(sizes))
		}
		if c.Rank() == 0 {
			for off := int64(0); off < slot; off += 1 << 10 {
				if b := w.Local(off, 1<<10); b[0] != byte(off>>10) || b[len(b)-1] != byte(off>>10) {
					t.Fatalf("chunk at %d lost across growth", off)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWinSlotStraddlePanics pins the slot invariant: an access crossing a
// slot boundary panics, naming itself an invariant, even though it lies
// inside the window.
func TestWinSlotStraddlePanics(t *testing.T) {
	_, err := Run(testConfig(2, 1), func(c *Comm) {
		w := c.WinCreate(2, 100)
		if c.Rank() == 1 {
			w.PutGather(0, 90, 20, putBytes(1))
		}
		w.Fence()
	})
	if err == nil || !strings.Contains(err.Error(), "invariant violated") || !strings.Contains(err.Error(), "straddles") {
		t.Fatalf("err = %v", err)
	}
}
