// Package mem implements the simulated machine's physical memory, a
// page-granular virtual address space, and a kmalloc-style physical page
// allocator including the greedy physically-contiguous allocation algorithm
// from Section IV-D of the nanoBench paper.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the page granularity of the simulated MMU.
const PageSize = 4096

// Memory is the physical memory and page table of a simulated machine.
// Virtual addresses are 32-bit (the machine lays out everything below 2 GB
// so absolute disp32 addressing works); physical addresses are 64-bit but
// bounded by the configured physical size.
//
// Both the page table and the physical storage are sparse, so a fresh
// Memory costs what it touches rather than what it models. The page table
// and the frame store are two-level: a small directory of leaves, each
// covering leafSize pages. A page-table leaf materializes on the first Map
// into its range; a frame-store leaf, and the frame itself, on the first
// write. Reads of untouched frames return zeros, exactly as if the whole
// array had been zeroed eagerly. Dense tables would make building a
// machine cost a 2 MB page-table fill plus a PhysMem-sized frame directory
// for the garbage collector to scan — prohibitive for a scheduler that
// builds one machine per job.
type Memory struct {
	physSize uint64
	virtSize uint64
	// pt maps a virtual page number to pfn+1 (0 = unmapped) through
	// pt[vpn/leafSize][vpn%leafSize]; nil leaves are wholly unmapped. The
	// directory spans the whole 32-bit space, so Translate indexes it
	// without a bounds check; Map never fills entries at or above
	// virtSize.
	pt [1 << 32 / (leafSize * PageSize)]*ptLeaf
	// frames holds per-page physical storage through
	// frames[pfn/leafSize][pfn%leafSize]; nil until first written.
	frames []*frameLeaf
}

// leafSize is the number of pages one page-table or frame-store leaf
// covers (4 MB of address space).
const leafSize = 1024

type (
	ptLeaf    [leafSize]uint32
	frameLeaf [leafSize]*[PageSize]byte
)

// NewMemory creates a memory with the given physical size and virtual
// address-space size, both multiples of the page size.
func NewMemory(physSize, virtSize uint64) (*Memory, error) {
	if physSize%PageSize != 0 || virtSize%PageSize != 0 {
		return nil, fmt.Errorf("mem: sizes must be multiples of the %d-byte page size", PageSize)
	}
	if virtSize > 1<<31 {
		return nil, fmt.Errorf("mem: virtual address space must fit below 2 GB")
	}
	if physSize/PageSize >= 1<<32 {
		return nil, fmt.Errorf("mem: physical memory must be below %d pages", uint64(1)<<32)
	}
	return &Memory{
		physSize: physSize,
		virtSize: virtSize,
		frames:   make([]*frameLeaf, (physSize/PageSize+leafSize-1)/leafSize),
	}, nil
}

// Reset restores the state NewMemory builds: every page unmapped and all
// physical memory zero. It drops every page-table and frame-store leaf,
// so its cost, like a fresh Memory's, is independent of the modelled size.
func (m *Memory) Reset() {
	clear(m.pt[:])
	clear(m.frames)
}

// PhysSize returns the physical memory size in bytes.
func (m *Memory) PhysSize() uint64 { return m.physSize }

var zeroFrame [PageSize]byte

// readFrame returns the page backing pfn for reading (the shared zero
// frame when untouched). Callers must not write through it.
func (m *Memory) readFrame(pfn uint64) *[PageSize]byte {
	if leaf := m.frames[pfn/leafSize]; leaf != nil {
		if f := leaf[pfn%leafSize]; f != nil {
			return f
		}
	}
	return &zeroFrame
}

// writeFrame returns the page backing pfn for writing, materializing it
// (and its leaf).
func (m *Memory) writeFrame(pfn uint64) *[PageSize]byte {
	leaf := m.frames[pfn/leafSize]
	if leaf == nil {
		leaf = new(frameLeaf)
		m.frames[pfn/leafSize] = leaf
	}
	f := leaf[pfn%leafSize]
	if f == nil {
		f = new([PageSize]byte)
		leaf[pfn%leafSize] = f
	}
	return f
}

// physRead copies from physical memory into dst, page by page.
func (m *Memory) physRead(phys uint64, dst []byte) {
	for len(dst) > 0 {
		off := phys % PageSize
		n := copy(dst, m.readFrame(phys / PageSize)[off:])
		dst = dst[n:]
		phys += uint64(n)
	}
}

// physWrite copies src into physical memory, page by page.
func (m *Memory) physWrite(phys uint64, src []byte) {
	for len(src) > 0 {
		off := phys % PageSize
		n := copy(m.writeFrame(phys / PageSize)[off:], src)
		src = src[n:]
		phys += uint64(n)
	}
}

// Map maps size bytes at virtual address virt to physical address phys.
// All three must be page-aligned.
func (m *Memory) Map(virt uint32, phys uint64, size uint64) error {
	if virt%PageSize != 0 || phys%PageSize != 0 || size%PageSize != 0 {
		return fmt.Errorf("mem: Map arguments must be page-aligned")
	}
	if phys+size > m.physSize {
		return fmt.Errorf("mem: mapping beyond physical memory (phys=%#x size=%#x)", phys, size)
	}
	if uint64(virt)+size > m.virtSize {
		return fmt.Errorf("mem: mapping beyond virtual address space (virt=%#x size=%#x)", virt, size)
	}
	for off := uint64(0); off < size; off += PageSize {
		vpn := (uint64(virt) + off) / PageSize
		leaf := m.pt[vpn/leafSize]
		if leaf == nil {
			leaf = new(ptLeaf)
			m.pt[vpn/leafSize] = leaf
		}
		leaf[vpn%leafSize] = uint32((phys+off)/PageSize) + 1
	}
	return nil
}

// Unmap removes the mapping for the given virtual range.
func (m *Memory) Unmap(virt uint32, size uint64) {
	for off := uint64(0); off < size; off += PageSize {
		vpn := (uint64(virt) + off) / PageSize
		if i := vpn / leafSize; i < uint64(len(m.pt)) && m.pt[i] != nil {
			m.pt[i][vpn%leafSize] = 0
		}
	}
}

// Translate translates a virtual address to a physical address.
func (m *Memory) Translate(virt uint32) (uint64, bool) {
	if leaf := m.pt[virt/(leafSize*PageSize)]; leaf != nil {
		if e := leaf[virt/PageSize%leafSize]; e != 0 {
			return uint64(e-1)*PageSize + uint64(virt%PageSize), true
		}
	}
	return 0, false
}

// Read copies len(dst) bytes at virtual address virt into dst, page by
// page. It returns false on an unmapped access (a simulated fault).
func (m *Memory) Read(virt uint32, dst []byte) bool {
	for len(dst) > 0 {
		p, ok := m.Translate(virt)
		if !ok {
			return false
		}
		n := copy(dst, m.readFrame(p / PageSize)[p%PageSize:])
		dst = dst[n:]
		virt += uint32(n)
	}
	return true
}

// Write copies src to virtual address virt, page by page. It returns false
// on an unmapped access; every page is translated before the first byte is
// written, so a faulting write leaves memory unchanged.
func (m *Memory) Write(virt uint32, src []byte) bool {
	if len(src) == 0 {
		return true
	}
	p, ok := m.Translate(virt)
	if !ok {
		return false
	}
	for a := uint64(virt)/PageSize*PageSize + PageSize; a < uint64(virt)+uint64(len(src)); a += PageSize {
		if _, ok := m.Translate(uint32(a)); !ok {
			return false
		}
	}
	for {
		n := copy(m.writeFrame(p / PageSize)[p%PageSize:], src)
		if src = src[n:]; len(src) == 0 {
			return true
		}
		virt += uint32(n)
		p, _ = m.Translate(virt)
	}
}

// Read64 reads a 64-bit little-endian value at virt.
func (m *Memory) Read64(virt uint32) (uint64, bool) {
	var b [8]byte
	if !m.Read(virt, b[:]) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[:]), true
}

// Write64 writes a 64-bit little-endian value at virt.
func (m *Memory) Write64(virt uint32, v uint64) bool {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return m.Write(virt, b[:])
}

// ReadPhys reads directly from physical memory (used by the kernel-module
// simulation and tests).
func (m *Memory) ReadPhys(phys uint64, dst []byte) error {
	if phys+uint64(len(dst)) > m.physSize {
		return fmt.Errorf("mem: physical read out of range")
	}
	m.physRead(phys, dst)
	return nil
}

// WritePhys writes directly to physical memory.
func (m *Memory) WritePhys(phys uint64, src []byte) error {
	if phys+uint64(len(src)) > m.physSize {
		return fmt.Errorf("mem: physical write out of range")
	}
	m.physWrite(phys, src)
	return nil
}
