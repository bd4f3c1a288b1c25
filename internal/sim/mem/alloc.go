package mem

import (
	"errors"
	"fmt"
	"math/rand"
)

// KmallocMax is the largest physically-contiguous allocation a single
// kmalloc call can return, matching recent Linux kernels (Section IV-D).
const KmallocMax = 4 << 20

// ErrRebootRequired is returned by AllocContiguous when no
// physically-contiguous region of the requested size could be assembled;
// the paper's tool proposes a reboot in this situation, which the simulated
// machine performs with Reboot.
var ErrRebootRequired = errors.New("mem: could not allocate physically-contiguous memory; reboot recommended")

// Allocator is a simplified physical page allocator with the behaviour the
// paper's greedy algorithm relies on: shortly after boot the freelist is
// ordered, so consecutive kmalloc calls return adjacent physical regions;
// after the system has run for a while the freelist is fragmented and
// adjacency becomes unlikely.
type Allocator struct {
	pageUsed []bool
	reserved uint64 // low physical pages reserved for the machine itself
	rover    uint64 // next page index to consider
	rng      *rand.Rand
}

// NewAllocator creates an allocator over physSize bytes of physical
// memory, with the first reserved bytes never handed out.
func NewAllocator(physSize, reserved uint64, rng *rand.Rand) *Allocator {
	a := &Allocator{
		pageUsed: make([]bool, physSize/PageSize),
		reserved: reserved / PageSize,
		rng:      rng,
	}
	a.Reboot()
	return a
}

// Reboot restores the pristine, ordered freelist state.
func (a *Allocator) Reboot() {
	clear(a.pageUsed)
	for i := range a.pageUsed[:min(a.reserved, uint64(len(a.pageUsed)))] {
		a.pageUsed[i] = true
	}
	a.rover = a.reserved
}

// Fragment marks a random fraction of free pages as used, simulating a
// long-running system. Subsequent kmalloc calls will rarely be adjacent.
func (a *Allocator) Fragment(frac float64) {
	for i := a.reserved; i < uint64(len(a.pageUsed)); i++ {
		if !a.pageUsed[i] && a.rng.Float64() < frac {
			a.pageUsed[i] = true
		}
	}
}

// FreePages returns the number of free pages.
func (a *Allocator) FreePages() int {
	n := 0
	for _, u := range a.pageUsed {
		if !u {
			n++
		}
	}
	return n
}

// Kmalloc allocates size bytes of physically-contiguous memory (rounded up
// to whole pages) and returns the physical base address. Requests larger
// than KmallocMax fail, as in the real kernel.
func (a *Allocator) Kmalloc(size uint64) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("mem: zero-size kmalloc")
	}
	if size > KmallocMax {
		return 0, fmt.Errorf("mem: kmalloc of %d bytes exceeds the %d-byte limit", size, KmallocMax)
	}
	pages := (size + PageSize - 1) / PageSize
	total := uint64(len(a.pageUsed))

	// Scan from the rover, wrapping once.
	scanned := uint64(0)
	start := a.rover
	for scanned < total {
		if start+pages > total {
			scanned += total - start
			start = a.reserved
			continue
		}
		run := uint64(0)
		for run < pages && !a.pageUsed[start+run] {
			run++
		}
		if run == pages {
			for i := uint64(0); i < pages; i++ {
				a.pageUsed[start+i] = true
			}
			a.rover = start + pages
			return start * PageSize, nil
		}
		scanned += run + 1
		start += run + 1
	}
	return 0, fmt.Errorf("mem: out of physical memory (%d pages requested)", pages)
}

// Free releases a region previously returned by Kmalloc.
func (a *Allocator) Free(phys, size uint64) {
	pages := (size + PageSize - 1) / PageSize
	for i := uint64(0); i < pages; i++ {
		pn := phys/PageSize + i
		if pn < uint64(len(a.pageUsed)) && pn >= a.reserved {
			a.pageUsed[pn] = false
		}
	}
}

// AllocContiguous implements the greedy algorithm from Section IV-D: it
// performs repeated kmalloc calls, tracking the longest run of adjacent
// regions; chunks that break adjacency restart the run. If no run of the
// requested size forms within a bounded number of calls, all chunks are
// released and ErrRebootRequired is returned.
func (a *Allocator) AllocContiguous(size uint64) (uint64, error) {
	if size <= KmallocMax {
		return a.Kmalloc(size)
	}
	const maxCalls = 256
	type chunk struct{ base, size uint64 }
	var all []chunk

	free := func() {
		for _, c := range all {
			a.Free(c.base, c.size)
		}
	}

	runBase := uint64(0)
	runLen := uint64(0)
	for calls := 0; calls < maxCalls; calls++ {
		base, err := a.Kmalloc(KmallocMax)
		if err != nil {
			free()
			return 0, ErrRebootRequired
		}
		all = append(all, chunk{base, KmallocMax})
		switch {
		case runLen == 0:
			runBase, runLen = base, KmallocMax
		case base == runBase+runLen:
			runLen += KmallocMax
		case base+KmallocMax == runBase:
			runBase = base
			runLen += KmallocMax
		default:
			runBase, runLen = base, KmallocMax
		}
		if runLen >= size {
			// Release every chunk outside the winning run.
			for _, c := range all {
				if c.base < runBase || c.base >= runBase+runLen {
					a.Free(c.base, c.size)
				}
			}
			// Trim the tail of the run beyond the requested size.
			if runLen > size {
				over := runLen - size
				// Only whole pages beyond size are returned.
				overPages := over / PageSize * PageSize
				if overPages > 0 {
					a.Free(runBase+runLen-overPages, overPages)
				}
			}
			return runBase, nil
		}
	}
	free()
	return 0, ErrRebootRequired
}
