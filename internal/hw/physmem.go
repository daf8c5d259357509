// Package hw models the physical machines of the paper's testbed: sparse
// frame-granular physical memory, machine profiles (M1, M2, cluster nodes)
// and the calibrated per-phase cost models that give the simulation its
// virtual-time behaviour.
//
// Physical memory is the ground truth the whole reproduction hangs on:
// guests write real bytes into frames, PRAM metadata is serialized into
// frames, and the kexec micro-reboot wipes every frame that is not
// explicitly preserved. "Guest State survives transplant" is therefore a
// checkable property, not an assumption.
package hw

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"sync"
)

// Page geometry. The simulation uses the x86-64 4 KiB base page and the
// 2 MiB huge page the paper's guests are configured with.
const (
	PageSize4K = 4096
	PageSize2M = 2 << 20
	// FramesPer2M is the number of base frames covered by one huge page.
	FramesPer2M = PageSize2M / PageSize4K
)

// chunkFrames is the frame count of one ownership-summary chunk. It is
// deliberately the 2 MiB huge-page run, so a huge allocation is exactly
// one chunk and the bulk ownership paths (wipe, retag, alloc) run at
// chunk granularity instead of frame granularity.
const chunkFrames = FramesPer2M

// MFN is a machine frame number: an index into host physical memory in
// units of 4 KiB frames.
type MFN uint64

// GFN is a guest frame number: an index into a guest physical address
// space in units of 4 KiB frames.
type GFN uint64

// Addr returns the byte address of the frame's first byte.
func (m MFN) Addr() uint64 { return uint64(m) * PageSize4K }

// Owner identifies which of the paper's four memory-separation categories
// (Fig. 2) a frame belongs to, so that the transplant engine and kexec can
// reason about what must be translated, preserved, or wiped.
type Owner uint8

const (
	// OwnerFree marks an unallocated frame.
	OwnerFree Owner = iota
	// OwnerGuest is Guest State: guest-managed memory, hypervisor
	// independent, kept in place across InPlaceTP.
	OwnerGuest
	// OwnerVMState is VM_i State: per-VM hypervisor structures (NPT,
	// vCPU contexts) that must be translated through UISR.
	OwnerVMState
	// OwnerVMMgmt is VM Management State: scheduler queues and other
	// structures rebuilt (not translated) after transplant.
	OwnerVMMgmt
	// OwnerHV is HV State: hypervisor-private memory reinitialized by
	// the micro-reboot.
	OwnerHV
	// OwnerPRAM marks frames holding PRAM metadata pages.
	OwnerPRAM
	// OwnerKexecImage marks frames holding the preloaded target
	// hypervisor image.
	OwnerKexecImage

	numOwners
)

var ownerNames = [...]string{"free", "guest", "vmstate", "vmmgmt", "hv", "pram", "kexec-image"}

func (o Owner) String() string {
	if int(o) < len(ownerNames) {
		return ownerNames[o]
	}
	return fmt.Sprintf("owner(%d)", uint8(o))
}

// page is one touched frame's backing store. With page dedup enabled,
// frames whose contents are byte-identical share one page (refs counts
// the sharers); writes unshare copy-on-write, so sharing is invisible to
// readers and checksums.
type page struct {
	buf []byte
	// hash and interned track the content-intern table registration so
	// a page can be deregistered before mutation or on release.
	hash     uint64
	interned bool
	refs     int32
}

// PhysMem is the physical memory of one machine. Ownership is a two-level
// structure: a per-frame tag array plus a per-chunk (2 MiB) summary. A
// chunk marked uniform has every frame in one (owner, vm) state and the
// summary is authoritative — the per-frame entries may be stale — which
// is what lets the transplant hot paths (micro-reboot wipe, address-space
// retag, huge-page allocation) run in O(chunks) instead of O(frames).
// Page *contents* are a sparse map populated only for frames actually
// written, so untouched guest pages cost nothing and read as zeros.
//
// Concurrency: all methods are safe to call from the internal/par worker
// pools, with one contract — concurrent Read/Write/Checksum calls must
// target *distinct* frames (the mutex guards the bookkeeping, while page
// payload copies run outside it so parallel page writes actually scale).
// Allocation and wiping take the full lock and are typically kept in
// sequential stages so frame assignment stays deterministic.
type PhysMem struct {
	mu          sync.Mutex
	totalFrames uint64
	owner       []Owner
	vm          []int32
	data        map[MFN]*page
	// sums caches per-frame CRC-64s so audit-style full-memory checksums
	// only re-hash frames written since the last pass. Entries are
	// invalidated on Write/Free/Wipe under pm.mu.
	sums      map[MFN]uint64
	next      MFN // bump cursor for allocation
	allocated uint64
	byOwner   [numOwners]uint64

	// Chunk summaries. uniform[c] means every frame of chunk c shares
	// (cOwner[c], cVM[c]) and the per-frame arrays are stale for it.
	// cAlloc counts allocated frames per chunk; cData counts data map
	// entries per chunk, so wipes skip the map entirely for chunks that
	// were never written.
	uniform []bool
	cOwner  []Owner
	cVM     []int32
	cAlloc  []uint32
	cData   []uint32

	// Content-hash page dedup (opt-in, see SetPageDedup): intern maps a
	// content hash to the pages registered under it; writes that produce
	// a byte-identical page share the existing one copy-on-write.
	dedup     bool
	intern    map[uint64][]*page
	dedupHits uint64
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// NewPhysMem creates a physical memory of size bytes (rounded down to a
// whole number of frames).
func NewPhysMem(size uint64) *PhysMem {
	n := size / PageSize4K
	nc := (n + chunkFrames - 1) / chunkFrames
	pm := &PhysMem{
		totalFrames: n,
		owner:       make([]Owner, n),
		vm:          make([]int32, n),
		data:        make(map[MFN]*page),
		sums:        make(map[MFN]uint64),
		uniform:     make([]bool, nc),
		cOwner:      make([]Owner, nc),
		cVM:         make([]int32, nc),
		cAlloc:      make([]uint32, nc),
		cData:       make([]uint32, nc),
	}
	for c := range pm.uniform {
		pm.uniform[c] = true
	}
	return pm
}

// chunkOf returns the chunk index covering frame m.
func chunkOf(m MFN) int { return int(uint64(m) / chunkFrames) }

// chunkSpan returns chunk c's first frame and frame count (the last
// chunk may be partial).
func (pm *PhysMem) chunkSpan(c int) (MFN, uint64) {
	base := uint64(c) * chunkFrames
	size := uint64(chunkFrames)
	if base+size > pm.totalFrames {
		size = pm.totalFrames - base
	}
	return MFN(base), size
}

// explode materializes chunk c's per-frame entries from its uniform
// summary, before a mutation that would leave the chunk mixed.
func (pm *PhysMem) explode(c int) {
	base, size := pm.chunkSpan(c)
	o, v := pm.cOwner[c], pm.cVM[c]
	for i := uint64(0); i < size; i++ {
		pm.owner[base+MFN(i)] = o
		pm.vm[base+MFN(i)] = v
	}
	pm.uniform[c] = false
}

// frameState returns the effective (owner, vm) of frame m; pm.mu held.
func (pm *PhysMem) frameState(m MFN) (Owner, int32) {
	if c := chunkOf(m); pm.uniform[c] {
		return pm.cOwner[c], pm.cVM[c]
	}
	return pm.owner[m], pm.vm[m]
}

// TotalFrames returns the machine's frame count.
func (pm *PhysMem) TotalFrames() uint64 { return pm.totalFrames }

// AllocatedFrames returns the number of currently allocated frames.
func (pm *PhysMem) AllocatedFrames() uint64 {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.allocated
}

// FreeFrames returns the number of unallocated frames.
func (pm *PhysMem) FreeFrames() uint64 {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.totalFrames - pm.allocated
}

// freeFramesLocked is FreeFrames for callers already holding pm.mu.
func (pm *PhysMem) freeFramesLocked() uint64 { return pm.totalFrames - pm.allocated }

// take claims frame m; its chunk must already be non-uniform.
func (pm *PhysMem) take(m MFN, owner Owner, vm int) {
	pm.owner[m] = owner
	pm.vm[m] = int32(vm)
	pm.allocated++
	pm.byOwner[owner]++
	pm.cAlloc[chunkOf(m)]++
}

// nextChunkStart returns the first frame of the chunk after c, wrapping
// to frame 0 past the end of memory.
func (pm *PhysMem) nextChunkStart(c int) MFN {
	nb := uint64(c+1) * chunkFrames
	if nb >= pm.totalFrames {
		return 0
	}
	return MFN(nb)
}

// Alloc allocates n frames for the given owner and VM id. Frames are
// assigned from a bump cursor that wraps, which — combined with frames
// freed and reallocated over a machine's lifetime — leaves VM memory
// scattered rather than contiguous, as the paper observes (§4.2.2).
// Whole free chunks at the cursor are claimed in bulk; the assigned
// frame sequence is identical to a frame-by-frame scan.
func (pm *PhysMem) Alloc(n int, owner Owner, vm int) ([]MFN, error) {
	if owner == OwnerFree {
		return nil, fmt.Errorf("hw: cannot allocate with OwnerFree")
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if uint64(n) > pm.freeFramesLocked() {
		return nil, fmt.Errorf("hw: out of memory: want %d frames, %d free", n, pm.freeFramesLocked())
	}
	out := make([]MFN, 0, n)
	for len(out) < n {
		m := pm.next
		c := chunkOf(m)
		if pm.uniform[c] {
			base, size := pm.chunkSpan(c)
			if pm.cOwner[c] != OwnerFree {
				// Fully-allocated chunk: the scan would skip every frame.
				pm.next = pm.nextChunkStart(c)
				continue
			}
			if m == base && uint64(n-len(out)) >= size {
				// Whole free chunk at the cursor: claim it in one step.
				pm.cOwner[c] = owner
				pm.cVM[c] = int32(vm)
				pm.cAlloc[c] = uint32(size)
				pm.allocated += size
				pm.byOwner[owner] += size
				for i := uint64(0); i < size; i++ {
					out = append(out, base+MFN(i))
				}
				pm.next = pm.nextChunkStart(c)
				continue
			}
			pm.explode(c)
		}
		if pm.owner[m] == OwnerFree {
			pm.take(m, owner, vm)
			out = append(out, m)
		}
		pm.next = m + 1
		if pm.next >= MFN(pm.totalFrames) {
			pm.next = 0
		}
	}
	return out, nil
}

// AllocRanges is Alloc with the result returned as coalesced frame
// ranges instead of a materialized per-frame list. The assignment policy
// — cursor walk, chunk fast path, wrap — is exactly Alloc's, so for a
// given memory state AllocRanges claims the same frames Alloc would;
// only the representation differs. Bulk owners that never address
// individual frames (the hypervisor resident set, the staged kexec
// image) use it so every simulated boot stops building
// tens-of-thousands-entry MFN slices.
func (pm *PhysMem) AllocRanges(n int, owner Owner, vm int) ([]FrameRange, error) {
	if owner == OwnerFree {
		return nil, fmt.Errorf("hw: cannot allocate with OwnerFree")
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if uint64(n) > pm.freeFramesLocked() {
		return nil, fmt.Errorf("hw: out of memory: want %d frames, %d free", n, pm.freeFramesLocked())
	}
	var out []FrameRange
	got := uint64(0)
	claim := func(start MFN, count uint64) {
		if k := len(out); k > 0 && out[k-1].Start+MFN(out[k-1].Count) == start {
			out[k-1].Count += count
		} else {
			out = append(out, FrameRange{Start: start, Count: count})
		}
		got += count
	}
	for got < uint64(n) {
		m := pm.next
		c := chunkOf(m)
		if pm.uniform[c] {
			base, size := pm.chunkSpan(c)
			if pm.cOwner[c] != OwnerFree {
				pm.next = pm.nextChunkStart(c)
				continue
			}
			if m == base && uint64(n)-got >= size {
				pm.cOwner[c] = owner
				pm.cVM[c] = int32(vm)
				pm.cAlloc[c] = uint32(size)
				pm.allocated += size
				pm.byOwner[owner] += size
				claim(base, size)
				pm.next = pm.nextChunkStart(c)
				continue
			}
			pm.explode(c)
		}
		if pm.owner[m] == OwnerFree {
			pm.take(m, owner, vm)
			claim(m, 1)
		}
		pm.next = m + 1
		if pm.next >= MFN(pm.totalFrames) {
			pm.next = 0
		}
	}
	return out, nil
}

// Alloc2M allocates one 2 MiB-aligned run of 512 contiguous frames,
// returning the first MFN. An aligned run is exactly one chunk, so the
// scan checks chunk summaries instead of individual frames.
func (pm *PhysMem) Alloc2M(owner Owner, vm int) (MFN, error) {
	if owner == OwnerFree {
		return 0, fmt.Errorf("hw: cannot allocate with OwnerFree")
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if FramesPer2M > pm.freeFramesLocked() {
		return 0, fmt.Errorf("hw: out of memory for 2M page")
	}
	start := (pm.next + FramesPer2M - 1) / FramesPer2M * FramesPer2M
	nRuns := pm.totalFrames / FramesPer2M
	for tries := uint64(0); tries < nRuns; tries++ {
		base := (start + MFN(tries*FramesPer2M)) % MFN(nRuns*FramesPer2M)
		c := chunkOf(base)
		if pm.uniform[c] {
			if pm.cOwner[c] != OwnerFree {
				continue
			}
		} else {
			ok := true
			for i := MFN(0); i < FramesPer2M; i++ {
				if pm.owner[base+i] != OwnerFree {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
		}
		pm.uniform[c] = true
		pm.cOwner[c] = owner
		pm.cVM[c] = int32(vm)
		pm.cAlloc[c] = FramesPer2M
		pm.allocated += FramesPer2M
		pm.byOwner[owner] += FramesPer2M
		pm.next = (base + FramesPer2M) % MFN(pm.totalFrames)
		return base, nil
	}
	return 0, fmt.Errorf("hw: no aligned 2M run available (fragmentation)")
}

// ClaimRange allocates the exact frames [start, start+count), all of
// which must currently be free — the all-or-nothing complement to the
// cursor-driven Alloc, used by snapshot replay to re-materialize a
// structure at the frames a previous build occupied. On failure nothing
// is claimed. The cursor is not moved: a claim at cached frames must not
// perturb where subsequent cursor allocations land.
func (pm *PhysMem) ClaimRange(start MFN, count uint64, owner Owner, vm int) error {
	if owner == OwnerFree {
		return fmt.Errorf("hw: cannot allocate with OwnerFree")
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if uint64(start)+count > pm.totalFrames {
		return fmt.Errorf("hw: ClaimRange [%#x,+%d) out of bounds", start, count)
	}
	for m := start; m < start+MFN(count); {
		c := chunkOf(m)
		if pm.uniform[c] {
			if pm.cOwner[c] != OwnerFree {
				return fmt.Errorf("hw: ClaimRange frame %#x not free", m)
			}
			base, size := pm.chunkSpan(c)
			m = base + MFN(size)
			continue
		}
		if pm.owner[m] != OwnerFree {
			return fmt.Errorf("hw: ClaimRange frame %#x not free", m)
		}
		m++
	}
	for m := start; m < start+MFN(count); {
		c := chunkOf(m)
		base, size := pm.chunkSpan(c)
		end := base + MFN(size)
		if rangeEnd := start + MFN(count); end > rangeEnd {
			end = rangeEnd
		}
		if pm.uniform[c] {
			if m == base && end == base+MFN(size) {
				// Whole free chunk: claim it at summary granularity.
				pm.cOwner[c] = owner
				pm.cVM[c] = int32(vm)
				pm.cAlloc[c] = uint32(size)
				pm.allocated += size
				pm.byOwner[owner] += size
				m = end
				continue
			}
			pm.explode(c)
		}
		for ; m < end; m++ {
			pm.take(m, owner, vm)
		}
	}
	return nil
}

// releaseData drops frame m's page contents and cached checksum; pm.mu
// held. Shared dedup pages are dereferenced and deregistered from the
// intern table when the last sharer goes.
func (pm *PhysMem) releaseData(m MFN) {
	p, ok := pm.data[m]
	if !ok {
		return
	}
	delete(pm.data, m)
	delete(pm.sums, m)
	pm.cData[chunkOf(m)]--
	p.refs--
	if p.refs <= 0 && p.interned {
		pm.uninternPage(p)
	}
}

// freeFrame releases frame m; its chunk must be non-uniform and the
// frame allocated. pm.mu held.
func (pm *PhysMem) freeFrame(m MFN) {
	pm.byOwner[pm.owner[m]]--
	pm.owner[m] = OwnerFree
	pm.vm[m] = 0
	pm.allocated--
	pm.cAlloc[chunkOf(m)]--
	pm.releaseData(m)
}

// collapseIfFree re-summarizes a drained chunk so later wipes and allocs
// take the O(1) paths again. pm.mu held.
func (pm *PhysMem) collapseIfFree(c int) {
	if !pm.uniform[c] && pm.cAlloc[c] == 0 {
		pm.uniform[c] = true
		pm.cOwner[c] = OwnerFree
		pm.cVM[c] = 0
	}
}

// Free releases a frame. Freeing an unallocated frame is an error: it
// indicates double-free bugs in a hypervisor model.
func (pm *PhysMem) Free(m MFN) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if m >= MFN(pm.totalFrames) {
		return fmt.Errorf("hw: double free of frame %#x", uint64(m))
	}
	c := chunkOf(m)
	if pm.uniform[c] {
		if pm.cOwner[c] == OwnerFree {
			return fmt.Errorf("hw: double free of frame %#x", uint64(m))
		}
		pm.explode(c)
	}
	if pm.owner[m] == OwnerFree {
		return fmt.Errorf("hw: double free of frame %#x", uint64(m))
	}
	pm.freeFrame(m)
	pm.collapseIfFree(c)
	return nil
}

// FreeRange releases the contiguous run [start, start+count) in one
// critical section — the bulk path behind hv.AddressSpace.Release, where
// a per-frame Free would pay a lock round-trip and a chunk explode per
// frame. Whole uniform chunks are released at summary granularity.
// Frames are freed in order; the first unallocated frame aborts with the
// same error (and partial effect) a Free loop has.
func (pm *PhysMem) FreeRange(start MFN, count uint64) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	end := uint64(start) + count
	limit := end
	if limit > pm.totalFrames {
		limit = pm.totalFrames
	}
	for f := uint64(start); f < limit; {
		c := chunkOf(MFN(f))
		base, size := pm.chunkSpan(c)
		hi := uint64(base) + size
		if hi > limit {
			hi = limit
		}
		if pm.uniform[c] {
			if pm.cOwner[c] == OwnerFree {
				return fmt.Errorf("hw: double free of frame %#x", f)
			}
			if f == uint64(base) && hi == uint64(base)+size {
				// Whole uniform chunk: release at summary granularity.
				pm.byOwner[pm.cOwner[c]] -= size
				pm.allocated -= size
				pm.cOwner[c] = OwnerFree
				pm.cVM[c] = 0
				pm.cAlloc[c] = 0
				for m := base; pm.cData[c] > 0 && uint64(m) < uint64(base)+size; m++ {
					pm.releaseDataAt(m, c)
				}
				f = hi
				continue
			}
			pm.explode(c)
		}
		for ; f < hi; f++ {
			if pm.owner[f] == OwnerFree {
				pm.collapseIfFree(c)
				return fmt.Errorf("hw: double free of frame %#x", f)
			}
			pm.freeFrame(MFN(f))
		}
		pm.collapseIfFree(c)
	}
	if end > pm.totalFrames {
		return fmt.Errorf("hw: double free of frame %#x", pm.totalFrames)
	}
	return nil
}

// releaseDataAt is releaseData without the chunk recomputation, for bulk
// paths that already know the chunk. pm.mu held.
func (pm *PhysMem) releaseDataAt(m MFN, c int) {
	p, ok := pm.data[m]
	if !ok {
		return
	}
	delete(pm.data, m)
	delete(pm.sums, m)
	pm.cData[c]--
	p.refs--
	if p.refs <= 0 && p.interned {
		pm.uninternPage(p)
	}
}

// OwnerOf reports a frame's owner tag (OwnerFree if unallocated) and
// owning VM id.
func (pm *PhysMem) OwnerOf(m MFN) (Owner, int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if m >= MFN(pm.totalFrames) {
		return OwnerFree, -1
	}
	o, v := pm.frameState(m)
	if o == OwnerFree {
		return OwnerFree, -1
	}
	return o, int(v)
}

// SetOwner retags an allocated frame. Used when the target hypervisor
// adopts preserved guest frames after a micro-reboot.
func (pm *PhysMem) SetOwner(m MFN, owner Owner, vm int) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.setOwnerLocked(m, owner, vm)
}

func (pm *PhysMem) setOwnerLocked(m MFN, owner Owner, vm int) error {
	if m >= MFN(pm.totalFrames) {
		return fmt.Errorf("hw: SetOwner on unallocated frame %#x", uint64(m))
	}
	c := chunkOf(m)
	if pm.uniform[c] {
		if pm.cOwner[c] == OwnerFree {
			return fmt.Errorf("hw: SetOwner on unallocated frame %#x", uint64(m))
		}
		if pm.cOwner[c] == owner && pm.cVM[c] == int32(vm) {
			return nil
		}
		pm.explode(c)
	}
	if pm.owner[m] == OwnerFree {
		return fmt.Errorf("hw: SetOwner on unallocated frame %#x", uint64(m))
	}
	pm.byOwner[pm.owner[m]]--
	pm.owner[m] = owner
	pm.vm[m] = int32(vm)
	pm.byOwner[owner]++
	return nil
}

// SetOwnerRange retags the contiguous run [start, start+count) in one
// critical section — the bulk path behind hv.AddressSpace.Retag, where a
// per-frame SetOwner would pay millions of lock round-trips per
// transplant. A fully-covered uniform chunk (every huge-page extent)
// retags in O(1). Frames are retagged in order; the first unallocated
// frame aborts with the same error (and partial effect) a SetOwner loop
// has.
func (pm *PhysMem) SetOwnerRange(start MFN, count uint64, owner Owner, vm int) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	end := uint64(start) + count
	limit := end
	if limit > pm.totalFrames {
		limit = pm.totalFrames
	}
	for f := uint64(start); f < limit; {
		c := chunkOf(MFN(f))
		base, size := pm.chunkSpan(c)
		hi := uint64(base) + size
		if hi > limit {
			hi = limit
		}
		if pm.uniform[c] {
			if pm.cOwner[c] == OwnerFree {
				return fmt.Errorf("hw: SetOwner on unallocated frame %#x", f)
			}
			if f == uint64(base) && hi == uint64(base)+size {
				if pm.cOwner[c] != owner || pm.cVM[c] != int32(vm) {
					pm.byOwner[pm.cOwner[c]] -= size
					pm.byOwner[owner] += size
					pm.cOwner[c] = owner
					pm.cVM[c] = int32(vm)
				}
				f = hi
				continue
			}
			pm.explode(c)
		}
		for ; f < hi; f++ {
			if pm.owner[f] == OwnerFree {
				return fmt.Errorf("hw: SetOwner on unallocated frame %#x", f)
			}
			pm.byOwner[pm.owner[f]]--
			pm.owner[f] = owner
			pm.vm[f] = int32(vm)
			pm.byOwner[owner]++
		}
	}
	if end > pm.totalFrames {
		return fmt.Errorf("hw: SetOwner on unallocated frame %#x", pm.totalFrames)
	}
	return nil
}

// Write copies data into the frame starting at offset off. It allocates
// backing storage on first touch. Writing past the frame end is an error.
// The payload copy runs outside the lock; concurrent writers must target
// distinct frames. With page dedup enabled, a shared page is unshared
// copy-on-write before mutation and the result is re-interned, so
// sharing never changes what a frame reads back.
func (pm *PhysMem) Write(m MFN, off int, data []byte) error {
	if off < 0 || off+len(data) > PageSize4K {
		return fmt.Errorf("hw: write [%d, %d) outside frame", off, off+len(data))
	}
	pm.mu.Lock()
	if m >= MFN(pm.totalFrames) {
		pm.mu.Unlock()
		return fmt.Errorf("hw: write to unallocated frame %#x", uint64(m))
	}
	if o, _ := pm.frameState(m); o == OwnerFree {
		pm.mu.Unlock()
		return fmt.Errorf("hw: write to unallocated frame %#x", uint64(m))
	}
	p, ok := pm.data[m]
	if !ok {
		p = &page{buf: make([]byte, PageSize4K), refs: 1}
		pm.data[m] = p
		pm.cData[chunkOf(m)]++
	} else if p.refs > 1 {
		// Copy-on-write unshare: other frames keep the shared original.
		p.refs--
		np := &page{buf: make([]byte, PageSize4K), refs: 1}
		copy(np.buf, p.buf)
		pm.data[m] = np
		p = np
	} else if p.interned {
		// Sole owner about to mutate: the intern registration is stale.
		pm.uninternPage(p)
	}
	delete(pm.sums, m)
	dedup := pm.dedup
	pm.mu.Unlock()
	copy(p.buf[off:], data)
	if dedup {
		h := crc64.Checksum(p.buf, crcTable)
		pm.mu.Lock()
		pm.internPage(m, p, h)
		pm.mu.Unlock()
	}
	return nil
}

// internPage registers frame m's freshly-written page under its content
// hash, sharing an existing byte-identical page instead when one is
// registered. pm.mu held.
func (pm *PhysMem) internPage(m MFN, p *page, h uint64) {
	if pm.intern == nil {
		pm.intern = make(map[uint64][]*page)
	}
	for _, q := range pm.intern[h] {
		if q != p && bytes.Equal(q.buf, p.buf) {
			q.refs++
			pm.data[m] = q
			pm.dedupHits++
			return
		}
	}
	p.hash = h
	p.interned = true
	pm.intern[h] = append(pm.intern[h], p)
}

// uninternPage removes p from the content-intern table. pm.mu held.
func (pm *PhysMem) uninternPage(p *page) {
	bucket := pm.intern[p.hash]
	for i, q := range bucket {
		if q == p {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(pm.intern, p.hash)
	} else {
		pm.intern[p.hash] = bucket
	}
	p.interned = false
}

// SetPageDedup enables or disables content-hash page dedup. Enabling
// starts interning pages written from now on; disabling stops interning
// but existing shared pages stay safely copy-on-write.
func (pm *PhysMem) SetPageDedup(on bool) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.dedup = on
}

// PageDedupHits reports how many writes produced a page byte-identical
// to one already resident, and the number of distinct shared pages
// currently interned.
func (pm *PhysMem) PageDedupHits() (hits uint64, interned int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.dedupHits, len(pm.intern)
}

// Read copies length bytes starting at offset off out of the frame.
// Untouched frames read as zeros, matching real RAM handed out by a
// hypervisor.
func (pm *PhysMem) Read(m MFN, off, length int) ([]byte, error) {
	if off < 0 || off+length > PageSize4K {
		return nil, fmt.Errorf("hw: read [%d, %d) outside frame", off, off+length)
	}
	pm.mu.Lock()
	if m >= MFN(pm.totalFrames) {
		pm.mu.Unlock()
		return nil, fmt.Errorf("hw: read from unallocated frame %#x", uint64(m))
	}
	if o, _ := pm.frameState(m); o == OwnerFree {
		pm.mu.Unlock()
		return nil, fmt.Errorf("hw: read from unallocated frame %#x", uint64(m))
	}
	p := pm.data[m]
	pm.mu.Unlock()
	out := make([]byte, length)
	if p != nil {
		copy(out, p.buf[off:off+length])
	}
	return out, nil
}

// ReadInto copies len(dst) bytes from the frame starting at offset off
// into dst, without allocating. Untouched frames read as zeros.
func (pm *PhysMem) ReadInto(m MFN, off int, dst []byte) error {
	if off < 0 || off+len(dst) > PageSize4K {
		return fmt.Errorf("hw: read [%d, %d) outside frame", off, off+len(dst))
	}
	pm.mu.Lock()
	if m >= MFN(pm.totalFrames) {
		pm.mu.Unlock()
		return fmt.Errorf("hw: read from unallocated frame %#x", uint64(m))
	}
	if o, _ := pm.frameState(m); o == OwnerFree {
		pm.mu.Unlock()
		return fmt.Errorf("hw: read from unallocated frame %#x", uint64(m))
	}
	p := pm.data[m]
	pm.mu.Unlock()
	if p != nil {
		copy(dst, p.buf[off:off+len(dst)])
	} else {
		clear(dst)
	}
	return nil
}

// AppendTouched appends to dst, in ascending order, every frame of
// [start, start+count) that has ever been written, and returns the
// extended slice. Untouched frames are logically zero and need no
// migration traffic, so this is the scan behind every content copy. The
// range is clamped to the machine. It takes pm.mu once for the whole
// range, skips chunks whose data counter is zero, and stops scanning a
// chunk once it has found that many frames.
func (pm *PhysMem) AppendTouched(dst []MFN, start MFN, count uint64) []MFN {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	end := pm.totalFrames
	if uint64(start) < end && count < end-uint64(start) {
		end = uint64(start) + count
	}
	for f := uint64(start); f < end; {
		c := chunkOf(MFN(f))
		base, size := pm.chunkSpan(c)
		hi := min(uint64(base)+size, end)
		for left := pm.cData[c]; left > 0 && f < hi; f++ {
			if _, ok := pm.data[MFN(f)]; ok {
				dst = append(dst, MFN(f))
				left--
			}
		}
		f = hi
	}
	return dst
}

// Checksum returns a CRC-64 of the frame's contents. Untouched frames
// checksum as all-zero pages. Results are cached per frame until the
// next write, so repeated full-memory sweeps only pay for dirty frames.
func (pm *PhysMem) Checksum(m MFN) (uint64, error) {
	pm.mu.Lock()
	if m >= MFN(pm.totalFrames) {
		pm.mu.Unlock()
		return 0, fmt.Errorf("hw: checksum of unallocated frame %#x", uint64(m))
	}
	if o, _ := pm.frameState(m); o == OwnerFree {
		pm.mu.Unlock()
		return 0, fmt.Errorf("hw: checksum of unallocated frame %#x", uint64(m))
	}
	if sum, ok := pm.sums[m]; ok {
		pm.mu.Unlock()
		return sum, nil
	}
	p := pm.data[m]
	pm.mu.Unlock()
	if p == nil {
		return zeroPageSum, nil
	}
	// The hash runs outside the lock; the same distinct-frames contract
	// that makes the payload copy in Write safe applies here.
	sum := crc64.Checksum(p.buf, crcTable)
	pm.mu.Lock()
	pm.sums[m] = sum
	pm.mu.Unlock()
	return sum, nil
}

var (
	zeroPage    [PageSize4K]byte
	zeroPageSum = crc64.Checksum(zeroPage[:], crcTable)
)

// Wipe zeroes and frees every allocated frame whose MFN is not in keep.
// It returns the number of frames wiped. This is the destructive half of
// the kexec micro-reboot: only explicitly preserved memory survives.
func (pm *PhysMem) Wipe(keep map[MFN]bool) int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	wiped := 0
	for c := range pm.uniform {
		if pm.uniform[c] && pm.cOwner[c] == OwnerFree {
			continue
		}
		base, size := pm.chunkSpan(c)
		kept := 0
		for i := uint64(0); i < size; i++ {
			if keep[base+MFN(i)] {
				kept++
			}
		}
		switch {
		case kept == 0:
			wiped += pm.wipeChunk(c)
		default:
			if pm.uniform[c] {
				pm.explode(c)
			}
			for i := uint64(0); i < size; i++ {
				m := base + MFN(i)
				if pm.owner[m] == OwnerFree || keep[m] {
					continue
				}
				pm.freeFrame(m)
				wiped++
			}
			pm.collapseIfFree(c)
		}
	}
	return wiped
}

// wipeChunk frees every allocated frame of chunk c (no keep set) and
// re-summarizes it as uniformly free. pm.mu held.
func (pm *PhysMem) wipeChunk(c int) int {
	base, size := pm.chunkSpan(c)
	var wiped int
	if pm.uniform[c] {
		wiped = int(pm.cAlloc[c])
		pm.byOwner[pm.cOwner[c]] -= uint64(pm.cAlloc[c])
		pm.allocated -= uint64(pm.cAlloc[c])
	} else {
		for i := uint64(0); i < size; i++ {
			m := base + MFN(i)
			if pm.owner[m] == OwnerFree {
				continue
			}
			pm.byOwner[pm.owner[m]]--
			pm.allocated--
			wiped++
		}
	}
	for m := base; pm.cData[c] > 0 && uint64(m) < uint64(base)+size; m++ {
		pm.releaseDataAt(m, c)
	}
	pm.uniform[c] = true
	pm.cOwner[c] = OwnerFree
	pm.cVM[c] = 0
	pm.cAlloc[c] = 0
	return wiped
}

// WipeRanges is Wipe with the keep set expressed as sorted, disjoint
// [start, start+count) frame runs. Chunks wholly outside the keep set
// are wiped at summary granularity and chunks wholly inside it are
// skipped, so a micro-reboot preserving huge-page guests costs
// O(chunks), not O(frames).
func (pm *PhysMem) WipeRanges(keep []FrameRange) int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	wiped := 0
	ki := 0
	for c := range pm.uniform {
		base, size := pm.chunkSpan(c)
		end := uint64(base) + size
		for ki < len(keep) && uint64(keep[ki].Start)+keep[ki].Count <= uint64(base) {
			ki++
		}
		if pm.uniform[c] && pm.cOwner[c] == OwnerFree {
			continue
		}
		if ki >= len(keep) || uint64(keep[ki].Start) >= end {
			// No keep range touches this chunk.
			wiped += pm.wipeChunk(c)
			continue
		}
		// Fully covered by keep ranges? Walk the ranges across the chunk.
		covered := true
		pos := uint64(base)
		for j := ki; pos < end; j++ {
			if j >= len(keep) || uint64(keep[j].Start) > pos {
				covered = false
				break
			}
			pos = uint64(keep[j].Start) + keep[j].Count
		}
		if covered {
			continue
		}
		// Partial overlap: per-frame, with a chunk-local range index.
		if pm.uniform[c] {
			pm.explode(c)
		}
		j := ki
		for m := base; uint64(m) < end; m++ {
			for j < len(keep) && uint64(m) >= uint64(keep[j].Start)+keep[j].Count {
				j++
			}
			if j < len(keep) && m >= keep[j].Start {
				continue
			}
			if pm.owner[m] == OwnerFree {
				continue
			}
			pm.freeFrame(m)
			wiped++
		}
		pm.collapseIfFree(c)
	}
	return wiped
}

// FrameRange is a contiguous run of machine frames.
type FrameRange struct {
	Start MFN
	Count uint64
}

// FramesByOwner returns the sorted MFNs currently tagged with owner.
func (pm *PhysMem) FramesByOwner(owner Owner) []MFN {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	var out []MFN
	for c := range pm.uniform {
		base, size := pm.chunkSpan(c)
		if pm.uniform[c] {
			if pm.cOwner[c] == owner {
				for i := uint64(0); i < size; i++ {
					out = append(out, base+MFN(i))
				}
			}
			continue
		}
		for i := uint64(0); i < size; i++ {
			if pm.owner[base+MFN(i)] == owner {
				out = append(out, base+MFN(i))
			}
		}
	}
	return out
}

// CountByOwner returns the number of frames per owner category — the
// memory-separation census of Fig. 2.
func (pm *PhysMem) CountByOwner() map[Owner]uint64 {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	out := make(map[Owner]uint64)
	for o := Owner(1); o < numOwners; o++ {
		if pm.byOwner[o] > 0 {
			out[o] = pm.byOwner[o]
		}
	}
	return out
}
