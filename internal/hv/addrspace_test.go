package hv

import (
	"bytes"
	"testing"
	"testing/quick"

	"hypertp/internal/hw"
	"hypertp/internal/uisr"
)

func newMem() *hw.PhysMem { return hw.NewPhysMem(256 << 20) }

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "vm", VCPUs: 1, MemBytes: 1 << 30, HugePages: true}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "", VCPUs: 1, MemBytes: 1 << 30},
		{Name: "vm", VCPUs: 0, MemBytes: 1 << 30},
		{Name: "vm", VCPUs: 1, MemBytes: 0},
		{Name: "vm", VCPUs: 1, MemBytes: 4097},
		{Name: "vm", VCPUs: 1, MemBytes: 4096 * 3, HugePages: true},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindXen.String() != "xen" || KindKVM.String() != "kvm" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind empty string")
	}
}

func TestAllocAddressSpace4K(t *testing.T) {
	mem := newMem()
	as, err := AllocAddressSpace(mem, 1, 64*hw.PageSize4K, false)
	if err != nil {
		t.Fatal(err)
	}
	if as.NumPages() != 64 {
		t.Fatalf("NumPages = %d", as.NumPages())
	}
	if as.Bytes() != 64*hw.PageSize4K {
		t.Fatalf("Bytes = %d", as.Bytes())
	}
	for gfn := hw.GFN(0); gfn < 64; gfn++ {
		mfn, err := as.Translate(gfn)
		if err != nil {
			t.Fatal(err)
		}
		if owner, vm := mem.OwnerOf(mfn); owner != hw.OwnerGuest || vm != 1 {
			t.Fatalf("frame %d owner %v/%d", mfn, owner, vm)
		}
	}
}

func TestAllocAddressSpaceHuge(t *testing.T) {
	mem := newMem()
	as, err := AllocAddressSpace(mem, 2, 8*hw.PageSize2M, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(as.Extents()) != 8 {
		t.Fatalf("extents = %d, want 8", len(as.Extents()))
	}
	for _, e := range as.Extents() {
		if e.Order != 9 {
			t.Fatalf("extent order %d, want 9", e.Order)
		}
	}
	if as.NumPages() != 8*hw.FramesPer2M {
		t.Fatalf("NumPages = %d", as.NumPages())
	}
}

func TestTranslateUnmapped(t *testing.T) {
	mem := newMem()
	as, _ := AllocAddressSpace(mem, 1, 16*hw.PageSize4K, false)
	if _, err := as.Translate(16); err == nil {
		t.Fatal("translate past end succeeded")
	}
}

func TestNewAddressSpaceRejectsOverlap(t *testing.T) {
	mem := newMem()
	extents := []uisr.PageExtent{
		{GFN: 0, MFN: 0, Order: 9},
		{GFN: 256, MFN: 1024, Order: 9}, // overlaps the first (0..511)
	}
	if _, err := NewAddressSpace(mem, extents); err == nil {
		t.Fatal("overlapping extents accepted")
	}
}

func TestNewAddressSpaceRejectsMisaligned(t *testing.T) {
	mem := newMem()
	if _, err := NewAddressSpace(mem, []uisr.PageExtent{{GFN: 1, MFN: 512, Order: 9}}); err == nil {
		t.Fatal("misaligned extent accepted")
	}
}

func TestReadWriteThroughSpace(t *testing.T) {
	mem := newMem()
	as, _ := AllocAddressSpace(mem, 1, 4*hw.PageSize2M, true)
	if err := as.WritePage(700, 8, []byte("deadbeef")); err != nil {
		t.Fatal(err)
	}
	got, err := as.ReadPage(700, 8, 8)
	if err != nil || string(got) != "deadbeef" {
		t.Fatalf("read %q, %v", got, err)
	}
}

func TestDirtyLog(t *testing.T) {
	mem := newMem()
	as, _ := AllocAddressSpace(mem, 1, 64*hw.PageSize4K, false)
	// Writes before enabling are not tracked.
	as.WritePage(1, 0, []byte{1})
	as.EnableDirtyLog()
	if !as.DirtyLogEnabled() {
		t.Fatal("dirty log not enabled")
	}
	as.WritePage(5, 0, []byte{1})
	as.WritePage(9, 0, []byte{1})
	as.WritePage(5, 8, []byte{1})
	dirty := as.FetchAndClearDirty()
	if len(dirty) != 2 || dirty[0] != 5 || dirty[1] != 9 {
		t.Fatalf("dirty = %v, want [5 9]", dirty)
	}
	if got := as.FetchAndClearDirty(); len(got) != 0 {
		t.Fatalf("second fetch = %v, want empty", got)
	}
	as.DisableDirtyLog()
	as.WritePage(3, 0, []byte{1})
	if got := as.FetchAndClearDirty(); got != nil {
		t.Fatalf("fetch after disable = %v", got)
	}
}

func TestChecksumAllDetectsChange(t *testing.T) {
	mem := newMem()
	as, _ := AllocAddressSpace(mem, 1, 16*hw.PageSize4K, false)
	c0, err := as.ChecksumAll()
	if err != nil {
		t.Fatal(err)
	}
	as.WritePage(3, 100, []byte{0xAB})
	c1, err := as.ChecksumAll()
	if err != nil {
		t.Fatal(err)
	}
	if c0 == c1 {
		t.Fatal("checksum unchanged after write")
	}
}

func TestChecksumPlacementIndependent(t *testing.T) {
	// Two spaces with the same guest contents but different frame
	// placement must checksum identically — this is what lets tests
	// compare pre/post MigrationTP images.
	memA, memB := newMem(), newMem()
	memB.Alloc(17, hw.OwnerHV, -1) // skew placement on B
	a, _ := AllocAddressSpace(memA, 1, 32*hw.PageSize4K, false)
	b, _ := AllocAddressSpace(memB, 1, 32*hw.PageSize4K, false)
	for gfn := hw.GFN(0); gfn < 32; gfn += 3 {
		payload := []byte{byte(gfn), 0x55}
		a.WritePage(gfn, int(gfn)*7, payload)
		b.WritePage(gfn, int(gfn)*7, payload)
	}
	ca, _ := a.ChecksumAll()
	cb, _ := b.ChecksumAll()
	if ca != cb {
		t.Fatal("same contents, different checksums")
	}
}

func TestFrameRangesMerged(t *testing.T) {
	mem := newMem()
	as, _ := AllocAddressSpace(mem, 1, 4*hw.PageSize2M, true)
	ranges := as.FrameRanges()
	var total uint64
	for i, r := range ranges {
		total += r.Count
		if i > 0 && ranges[i-1].Start+hw.MFN(ranges[i-1].Count) >= r.Start+1 {
			if ranges[i-1].Start+hw.MFN(ranges[i-1].Count) == r.Start {
				t.Fatal("adjacent ranges not merged")
			}
		}
	}
	if total != as.NumPages() {
		t.Fatalf("ranges cover %d frames, want %d", total, as.NumPages())
	}
}

func TestRelease(t *testing.T) {
	mem := newMem()
	before := mem.AllocatedFrames()
	as, _ := AllocAddressSpace(mem, 1, 2*hw.PageSize2M, true)
	if err := as.Release(); err != nil {
		t.Fatal(err)
	}
	if mem.AllocatedFrames() != before {
		t.Fatalf("leak: %d frames allocated after release", mem.AllocatedFrames())
	}
}

func TestRetag(t *testing.T) {
	mem := newMem()
	as, _ := AllocAddressSpace(mem, 1, hw.PageSize2M, true)
	if err := as.Retag(hw.OwnerGuest, 42); err != nil {
		t.Fatal(err)
	}
	mfn, _ := as.Translate(0)
	if _, vm := mem.OwnerOf(mfn); vm != 42 {
		t.Fatalf("vm tag = %d, want 42", vm)
	}
}

func TestVMPausedFlag(t *testing.T) {
	vm := &VM{}
	if vm.Paused() {
		t.Fatal("new VM paused")
	}
	vm.SetPaused(true)
	if !vm.Paused() {
		t.Fatal("SetPaused(true) ignored")
	}
}

// Property: translate is consistent with the extent list for random
// huge/4K mixes.
func TestPropertyTranslate(t *testing.T) {
	f := func(seed uint8) bool {
		mem := newMem()
		nHuge := int(seed%3) + 1
		as, err := AllocAddressSpace(mem, 1, uint64(nHuge)*hw.PageSize2M, true)
		if err != nil {
			return false
		}
		for _, e := range as.Extents() {
			for p := uint64(0); p < e.Pages(); p += 37 {
				mfn, err := as.Translate(hw.GFN(e.GFN + p))
				if err != nil || uint64(mfn) != e.MFN+p {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCopyContentsTo copies sparse writes — several on 2 MiB chunk edges
// of the source frames — between every combination of 4K-page and huge-
// page spaces on machines with skewed placement, and checks that the
// destination matches page for page. One 4K source maps its frames in
// reverse GFN order, so GFN and MFN run in opposite directions.
func TestCopyContentsTo(t *testing.T) {
	const size = 3 * hw.PageSize2M
	for _, tc := range []struct {
		name             string
		srcHuge, dstHuge bool
		srcSkew, dstSkew int
		reversed         bool
	}{
		{"4K-to-4K", false, false, 300, 17, false},
		{"4K-reversed-to-4K", false, false, 5, 0, true},
		{"huge-to-huge", true, true, 0, 0, false},
		{"4K-to-huge", false, true, 511, 0, false},
		{"huge-to-4K", true, false, 0, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			memA, memB := newMem(), newMem()
			memA.Alloc(tc.srcSkew+1, hw.OwnerHV, -1)
			memB.Alloc(tc.dstSkew+1, hw.OwnerHV, -1)
			src, err := AllocAddressSpace(memA, 1, size, tc.srcHuge)
			if err != nil {
				t.Fatal(err)
			}
			if tc.reversed {
				ext := src.Extents()
				rev := make([]uisr.PageExtent, len(ext))
				for i, e := range ext {
					rev[i] = uisr.PageExtent{GFN: e.GFN, MFN: ext[len(ext)-1-i].MFN}
				}
				if src, err = NewAddressSpace(memA, rev); err != nil {
					t.Fatal(err)
				}
			}
			dst, err := AllocAddressSpace(memB, 2, size, tc.dstHuge)
			if err != nil {
				t.Fatal(err)
			}
			edges := 0
			for gfn := hw.GFN(0); uint64(gfn) < src.NumPages(); gfn++ {
				mfn, _ := src.Translate(gfn)
				onEdge := mfn%hw.FramesPer2M == 0 || mfn%hw.FramesPer2M == hw.FramesPer2M-1
				if !onEdge && gfn%97 != 5 && uint64(gfn) != src.NumPages()-1 {
					continue
				}
				if onEdge {
					edges++
				}
				if err := src.WritePage(gfn, int(gfn)%hw.PageSize4K, []byte{byte(gfn), byte(gfn >> 8), 0xC3}); err != nil {
					t.Fatal(err)
				}
			}
			if edges < 4 {
				t.Fatalf("only %d writes on chunk edges", edges)
			}
			if err := src.CopyContentsTo(dst); err != nil {
				t.Fatal(err)
			}
			cs, _ := src.ChecksumAll()
			cd, _ := dst.ChecksumAll()
			if cs != cd {
				t.Fatalf("checksums differ: src %#x, dst %#x", cs, cd)
			}
			for gfn := hw.GFN(0); uint64(gfn) < src.NumPages(); gfn++ {
				a, errA := src.ReadPage(gfn, 0, hw.PageSize4K)
				b, errB := dst.ReadPage(gfn, 0, hw.PageSize4K)
				if errA != nil || errB != nil || !bytes.Equal(a, b) {
					t.Fatalf("gfn %d differs after copy (%v, %v)", gfn, errA, errB)
				}
			}
		})
	}
}

func TestCopyContentsToRejectsSizeMismatch(t *testing.T) {
	mem := newMem()
	src, _ := AllocAddressSpace(mem, 1, 2*hw.PageSize2M, true)
	dst, _ := AllocAddressSpace(mem, 2, hw.PageSize2M, true)
	src.WritePage(0, 0, []byte{1})
	if err := src.CopyContentsTo(dst); err == nil {
		t.Fatal("copy into a smaller space succeeded")
	}
	if err := dst.CopyContentsTo(src); err == nil {
		t.Fatal("copy into a larger space succeeded")
	}
	if got, _ := dst.ReadPage(0, 0, 1); got[0] != 0 {
		t.Fatal("rejected copy wrote to the destination")
	}
}

// BenchmarkCopyContentsTo is the migration content copy of a mostly
// untouched guest: a 1 GiB huge-page space with a 1024-page working set
// spread across its chunks, copied into a fresh destination each time
// as a migration does (so first-touch page allocation is counted).
func BenchmarkCopyContentsTo(b *testing.B) {
	const size = 1 << 30
	src, err := AllocAddressSpace(hw.NewPhysMem(size), 1, size, true)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, hw.PageSize4K)
	for i := uint64(0); i < 1024; i++ {
		if err := src.WritePage(hw.GFN(i*256+i*37%256), 0, payload); err != nil {
			b.Fatal(err)
		}
	}
	dstMem := hw.NewPhysMem(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dst, err := AllocAddressSpace(dstMem, 2, size, true)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := src.CopyContentsTo(dst); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := dst.Release(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
