package hw

import (
	"bytes"
	"slices"
	"testing"

	"hypertp/internal/simtime"
)

// refMem is the naive reference model for PhysMem's allocation and
// contents: a set of allocated frames and a map of written frames.
type refMem struct {
	alloc map[MFN]bool
	data  map[MFN][]byte
}

func (r *refMem) free(m MFN) {
	delete(r.alloc, m)
	delete(r.data, m)
}

// touched returns the model's written frames in [start, start+count),
// ascending. Frames past the machine are never written, so the model
// needs no counterpart of AppendTouched's clamping.
func (r *refMem) touched(start MFN, count uint64) []MFN {
	var out []MFN
	for m := range r.data {
		if m >= start && uint64(m-start) < count {
			out = append(out, m)
		}
	}
	slices.Sort(out)
	return out
}

// allocated returns the model's allocated frames in ascending order.
func (r *refMem) allocated() []MFN {
	out := make([]MFN, 0, len(r.alloc))
	for m := range r.alloc {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}

// TestAppendTouchedMatchesReference drives PhysMem and the reference
// model through the same random sequence of allocations, writes (with
// and without page dedup), frees, range frees and wipes, and after every
// step compares AppendTouched over random ranges — partial first and
// last chunks, the machine's partial final chunk, ranges running off the
// end — with the model's written set. Contents and the ownership audit
// (which recounts the per-chunk counters the scan trusts) are checked
// along the way.
func TestAppendTouchedMatchesReference(t *testing.T) {
	// Six whole chunks plus a partial seventh.
	const total = 6*chunkFrames + 37
	patterns := [][]byte{bytes.Repeat([]byte{0xAA}, PageSize4K), bytes.Repeat([]byte{0x55}, PageSize4K), make([]byte, PageSize4K)}
	for seed := uint64(1); seed <= 4; seed++ {
		rng := simtime.NewRand(seed)
		pm := NewPhysMem(total * PageSize4K)
		ref := &refMem{alloc: map[MFN]bool{}, data: map[MFN][]byte{}}
		// pick returns an allocated frame most of the time, else any frame
		// (possibly past the end of memory).
		pick := func() MFN {
			if len(ref.alloc) > 0 && rng.Intn(4) != 0 {
				all := ref.allocated()
				return all[rng.Intn(len(all))]
			}
			return MFN(rng.Intn(total + 8))
		}
		write := func(m MFN, off int, b []byte) {
			err := pm.Write(m, off, b)
			if !ref.alloc[m] {
				if err == nil {
					t.Fatalf("seed %d: write to unallocated frame %#x succeeded", seed, m)
				}
				return
			}
			if err != nil {
				t.Fatalf("seed %d: write %#x: %v", seed, m, err)
			}
			p, ok := ref.data[m]
			if !ok {
				p = make([]byte, PageSize4K)
				ref.data[m] = p
			}
			copy(p[off:], b)
		}
		for step := 0; step < 300; step++ {
			switch rng.Intn(9) {
			case 0:
				n := 1 + rng.Intn(700)
				mfns, err := pm.Alloc(n, OwnerGuest, 1)
				if (err != nil) != (uint64(n) > total-uint64(len(ref.alloc))) {
					t.Fatalf("seed %d step %d: Alloc(%d) err=%v with %d free", seed, step, n, err, total-len(ref.alloc))
				}
				for _, m := range mfns {
					if ref.alloc[m] {
						t.Fatalf("seed %d step %d: Alloc returned allocated frame %#x", seed, step, m)
					}
					ref.alloc[m] = true
				}
			case 1:
				base, err := pm.Alloc2M(OwnerGuest, 1)
				if err != nil {
					continue
				}
				for m := base; m < base+FramesPer2M; m++ {
					if ref.alloc[m] {
						t.Fatalf("seed %d step %d: Alloc2M returned allocated frame %#x", seed, step, m)
					}
					ref.alloc[m] = true
				}
			case 2, 3:
				for k := 1 + rng.Intn(8); k > 0; k-- {
					off := rng.Intn(PageSize4K)
					b := make([]byte, 1+rng.Intn(PageSize4K-off))
					for i := range b {
						b[i] = byte(rng.Uint64())
					}
					write(pick(), off, b)
				}
			case 4:
				// Dedup-enabled writes of shared patterns: several frames end
				// up backed by one page, which must not change what is touched.
				pm.SetPageDedup(true)
				for k := 1 + rng.Intn(6); k > 0; k-- {
					write(pick(), 0, patterns[rng.Intn(len(patterns))])
				}
				pm.SetPageDedup(rng.Intn(2) == 0)
			case 5:
				m := pick()
				err := pm.Free(m)
				if (err == nil) != ref.alloc[m] {
					t.Fatalf("seed %d step %d: Free(%#x) err=%v, allocated=%v", seed, step, m, err, ref.alloc[m])
				}
				ref.free(m)
			case 6:
				// FreeRange frees in order and stops at the first frame
				// that is not allocated (or lies past the end of memory).
				start := pick()
				if rng.Intn(2) == 0 {
					start -= start % chunkFrames
				}
				count := uint64(1 + rng.Intn(3*chunkFrames))
				err := pm.FreeRange(start, count)
				wantErr := false
				for f := start; f < start+MFN(count); f++ {
					if !ref.alloc[f] {
						wantErr = true
						break
					}
					ref.free(f)
				}
				if (err != nil) != wantErr {
					t.Fatalf("seed %d step %d: FreeRange(%#x, %d) err=%v, want error %v", seed, step, start, count, err, wantErr)
				}
			case 7:
				keep := map[MFN]bool{}
				for _, m := range ref.allocated() {
					if rng.Intn(4) != 0 {
						keep[m] = true
					}
				}
				pm.Wipe(keep)
				for _, m := range ref.allocated() {
					if !keep[m] {
						ref.free(m)
					}
				}
			case 8:
				var keep []FrameRange
				for pos := uint64(rng.Intn(chunkFrames)); pos < total; {
					n := uint64(1 + rng.Intn(2*chunkFrames))
					keep = append(keep, FrameRange{Start: MFN(pos), Count: n})
					pos += n + uint64(1+rng.Intn(chunkFrames))
				}
				pm.WipeRanges(keep)
				for _, m := range ref.allocated() {
					kept := false
					for _, r := range keep {
						if m >= r.Start && uint64(m-r.Start) < r.Count {
							kept = true
						}
					}
					if !kept {
						ref.free(m)
					}
				}
			}

			ranges := []FrameRange{
				{0, total},
				{MFN(total - 37 - rng.Intn(chunkFrames)), ^uint64(0)}, // partial final chunk, unbounded count
				{MFN(rng.Intn(total)), uint64(rng.Intn(2 * chunkFrames))},
				{MFN(rng.Intn(total)), uint64(rng.Intn(total))},
				{MFN(total + rng.Intn(4)), uint64(rng.Intn(8))}, // past the end
			}
			for _, r := range ranges {
				prefix := []MFN{7, 3}
				got := pm.AppendTouched(slices.Clone(prefix), r.Start, r.Count)
				if !slices.Equal(got[:2], prefix) {
					t.Fatalf("seed %d step %d: AppendTouched clobbered dst prefix: %v", seed, step, got[:2])
				}
				if want := ref.touched(r.Start, r.Count); !slices.Equal(got[2:], want) {
					t.Fatalf("seed %d step %d: AppendTouched(%#x, %d) = %v, model says %v", seed, step, r.Start, r.Count, got[2:], want)
				}
			}
			for m, want := range ref.data {
				got, err := pm.Read(m, 0, PageSize4K)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: frame %#x contents differ from model (err %v)", seed, step, m, err)
				}
			}
			if vs := pm.AuditOwners(map[int]bool{1: true}); vs != nil {
				t.Fatalf("seed %d step %d: audit: %v", seed, step, vs)
			}
			if pm.AllocatedFrames() != uint64(len(ref.alloc)) {
				t.Fatalf("seed %d step %d: %d frames allocated, model has %d", seed, step, pm.AllocatedFrames(), len(ref.alloc))
			}
		}
	}
}
