package mem

import (
	"errors"
	"math/rand"
	"testing"
)

func newTestMem(t *testing.T) *Memory {
	t.Helper()
	m, err := NewMemory(16<<20, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMapTranslate(t *testing.T) {
	m := newTestMem(t)
	if err := m.Map(0x10000, 0x200000, 0x2000); err != nil {
		t.Fatal(err)
	}
	p, ok := m.Translate(0x10004)
	if !ok || p != 0x200004 {
		t.Fatalf("Translate = %#x, %v", p, ok)
	}
	p, ok = m.Translate(0x11FFF)
	if !ok || p != 0x201FFF {
		t.Fatalf("Translate end = %#x, %v", p, ok)
	}
	if _, ok := m.Translate(0x12000); ok {
		t.Fatal("expected unmapped past end")
	}
	m.Unmap(0x10000, 0x1000)
	if _, ok := m.Translate(0x10000); ok {
		t.Fatal("expected unmapped after Unmap")
	}
	if _, ok := m.Translate(0x11000); !ok {
		t.Fatal("second page should stay mapped")
	}
}

func TestMapValidation(t *testing.T) {
	m := newTestMem(t)
	if err := m.Map(0x10001, 0x200000, 0x1000); err == nil {
		t.Error("expected unaligned virt error")
	}
	if err := m.Map(0x10000, 0x200000, 0x10000000); err == nil {
		t.Error("expected out-of-phys error")
	}
	if err := m.Map(0x7FF000, 0x200000, 0x10000); err == nil {
		t.Error("expected out-of-virt error")
	}
	if _, err := NewMemory(100, 4096); err == nil {
		t.Error("expected unaligned size error")
	}
}

func TestReadWrite(t *testing.T) {
	m := newTestMem(t)
	if err := m.Map(0x10000, 0x200000, 0x2000); err != nil {
		t.Fatal(err)
	}
	if !m.Write64(0x10010, 0xDEADBEEFCAFE) {
		t.Fatal("write failed")
	}
	v, ok := m.Read64(0x10010)
	if !ok || v != 0xDEADBEEFCAFE {
		t.Fatalf("Read64 = %#x, %v", v, ok)
	}
	// Cross-page contiguous access.
	if !m.Write64(0x10FFC, 0x1122334455667788) {
		t.Fatal("cross-page write failed")
	}
	v, ok = m.Read64(0x10FFC)
	if !ok || v != 0x1122334455667788 {
		t.Fatalf("cross-page Read64 = %#x", v)
	}
	// Cross-page onto unmapped page: the write fails and commits nothing,
	// not even the bytes that land on the mapped page.
	if !m.Write64(0x11FF8, 0xA5A5A5A5A5A5A5A5) {
		t.Fatal("write failed")
	}
	if m.Write64(0x11FFC, 0x1122334455667788) {
		t.Fatal("write spanning unmapped page should fail")
	}
	if v, ok := m.Read64(0x11FF8); !ok || v != 0xA5A5A5A5A5A5A5A5 {
		t.Fatalf("failed write changed memory: Read64 = %#x, %v", v, ok)
	}
	if _, ok := m.Read64(0x11FFC); ok {
		t.Fatal("read spanning unmapped page should fail")
	}
	if _, ok := m.Read64(0x7000); ok {
		t.Fatal("read of unmapped address should fail")
	}
}

func TestNonContiguousSpan(t *testing.T) {
	m := newTestMem(t)
	// Map two virtual pages to non-adjacent physical pages.
	if err := m.Map(0x20000, 0x300000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(0x21000, 0x500000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if !m.Write64(0x20FFC, 0xAABBCCDDEEFF0011) {
		t.Fatal("span write failed")
	}
	v, ok := m.Read64(0x20FFC)
	if !ok || v != 0xAABBCCDDEEFF0011 {
		t.Fatalf("span Read64 = %#x", v)
	}
	// The bytes must be split across the two physical pages.
	var lo [4]byte
	if err := m.ReadPhys(0x300FFC, lo[:]); err != nil {
		t.Fatal(err)
	}
	var hi [4]byte
	if err := m.ReadPhys(0x500000, hi[:]); err != nil {
		t.Fatal(err)
	}
	if lo[0] != 0x11 || hi[0] != 0xDD {
		t.Fatalf("split bytes lo=%x hi=%x", lo, hi)
	}
}

func TestKmallocAdjacencyAfterReboot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAllocator(64<<20, 1<<20, rng)
	p1, err := a.Kmalloc(KmallocMax)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Kmalloc(KmallocMax)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1+KmallocMax {
		t.Fatalf("fresh allocator not adjacent: %#x then %#x", p1, p2)
	}
	if p1 < 1<<20 {
		t.Fatalf("allocation in reserved region: %#x", p1)
	}
}

func TestKmallocLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAllocator(16<<20, 0, rng)
	if _, err := a.Kmalloc(KmallocMax + 1); err == nil {
		t.Error("expected error above KmallocMax")
	}
	if _, err := a.Kmalloc(0); err == nil {
		t.Error("expected error for zero size")
	}
	// Exhaust memory.
	for i := 0; i < 4; i++ {
		if _, err := a.Kmalloc(KmallocMax); err != nil {
			t.Fatalf("allocation %d failed: %v", i, err)
		}
	}
	if _, err := a.Kmalloc(KmallocMax); err == nil {
		t.Error("expected out-of-memory")
	}
}

func TestFreeAndReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAllocator(16<<20, 0, rng)
	p, err := a.Kmalloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	before := a.FreePages()
	a.Free(p, 1<<20)
	after := a.FreePages()
	if after-before != (1<<20)/PageSize {
		t.Fatalf("Free released %d pages, want %d", after-before, (1<<20)/PageSize)
	}
}

func TestAllocContiguousLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewAllocator(128<<20, 1<<20, rng)
	base, err := a.AllocContiguous(32 << 20)
	if err != nil {
		t.Fatalf("AllocContiguous(32MB): %v", err)
	}
	_ = base
}

func TestAllocContiguousFragmented(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewAllocator(128<<20, 1<<20, rng)
	a.Fragment(0.02) // a few holes break every 4 MB run
	_, err := a.AllocContiguous(32 << 20)
	if !errors.Is(err, ErrRebootRequired) {
		t.Fatalf("fragmented AllocContiguous: err = %v, want ErrRebootRequired", err)
	}
	// The paper's remedy: reboot, then retry.
	a.Reboot()
	if _, err := a.AllocContiguous(32 << 20); err != nil {
		t.Fatalf("after reboot: %v", err)
	}
}
