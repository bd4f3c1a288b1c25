package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// denseMemory is the reference model for Memory: the obvious flat layout,
// one page-table entry per virtual page (-1 = unmapped) and one
// frame-directory slot per physical page, translated byte by byte. It is
// too costly to build per machine and serves only as a test oracle. A
// write translates every byte before storing any, so a faulting write
// leaves memory unchanged.
type denseMemory struct {
	physSize uint64
	pt       []int32
	frames   [][]byte
}

func newDenseMemory(physSize, virtSize uint64) *denseMemory {
	d := &denseMemory{
		physSize: physSize,
		pt:       make([]int32, virtSize/PageSize),
		frames:   make([][]byte, physSize/PageSize),
	}
	for i := range d.pt {
		d.pt[i] = -1
	}
	return d
}

func (d *denseMemory) Map(virt uint32, phys, size uint64) error {
	if virt%PageSize != 0 || phys%PageSize != 0 || size%PageSize != 0 {
		return errors.New("unaligned")
	}
	if phys+size > d.physSize {
		return errors.New("beyond physical memory")
	}
	if uint64(virt)+size > uint64(len(d.pt))*PageSize {
		return errors.New("beyond virtual address space")
	}
	for off := uint64(0); off < size; off += PageSize {
		d.pt[(uint64(virt)+off)/PageSize] = int32((phys + off) / PageSize)
	}
	return nil
}

func (d *denseMemory) Unmap(virt uint32, size uint64) {
	for off := uint64(0); off < size; off += PageSize {
		if vpn := (uint64(virt) + off) / PageSize; vpn < uint64(len(d.pt)) {
			d.pt[vpn] = -1
		}
	}
}

func (d *denseMemory) Translate(virt uint32) (uint64, bool) {
	vpn := uint64(virt / PageSize)
	if vpn >= uint64(len(d.pt)) || d.pt[vpn] < 0 {
		return 0, false
	}
	return uint64(d.pt[vpn])*PageSize + uint64(virt%PageSize), true
}

func (d *denseMemory) load(phys uint64) byte {
	if f := d.frames[phys/PageSize]; f != nil {
		return f[phys%PageSize]
	}
	return 0
}

func (d *denseMemory) store(phys uint64, b byte) {
	f := d.frames[phys/PageSize]
	if f == nil {
		f = make([]byte, PageSize)
		d.frames[phys/PageSize] = f
	}
	f[phys%PageSize] = b
}

func (d *denseMemory) Read(virt uint32, dst []byte) bool {
	for i := range dst {
		p, ok := d.Translate(virt + uint32(i))
		if !ok {
			return false
		}
		dst[i] = d.load(p)
	}
	return true
}

func (d *denseMemory) Write(virt uint32, src []byte) bool {
	for i := range src {
		if _, ok := d.Translate(virt + uint32(i)); !ok {
			return false
		}
	}
	for i, b := range src {
		p, _ := d.Translate(virt + uint32(i))
		d.store(p, b)
	}
	return true
}

func (d *denseMemory) ReadPhys(phys uint64, dst []byte) error {
	if phys+uint64(len(dst)) > d.physSize {
		return errors.New("out of range")
	}
	for i := range dst {
		dst[i] = d.load(phys + uint64(i))
	}
	return nil
}

func (d *denseMemory) WritePhys(phys uint64, src []byte) error {
	if phys+uint64(len(src)) > d.physSize {
		return errors.New("out of range")
	}
	for i, b := range src {
		d.store(phys+uint64(i), b)
	}
	return nil
}

// spots picks addresses clustered around the places the two-level tables
// can go wrong: page and leaf boundaries, the start and the last page of
// the space, and a few random pages. Clustering also makes maps, reads and
// writes land on each other's pages often.
type spots struct {
	rng  *rand.Rand
	size uint64
	hot  []uint64 // page-aligned
}

func newSpots(rng *rand.Rand, size uint64) *spots {
	const leafBytes = leafSize * PageSize
	s := &spots{rng: rng, size: size, hot: []uint64{0, size - PageSize, size}}
	for b := uint64(leafBytes); b < size && b <= 3*leafBytes; b += leafBytes {
		s.hot = append(s.hot, b)
	}
	for i := 0; i < 3; i++ {
		s.hot = append(s.hot, uint64(rng.Int63n(int64(size/PageSize)))*PageSize)
	}
	return s
}

// page returns a page-aligned address within a few pages of a hot spot,
// possibly just past the end of the space.
func (s *spots) page() uint64 {
	a := int64(s.hot[s.rng.Intn(len(s.hot))]) + int64(s.rng.Intn(7)-3)*PageSize
	if a < 0 {
		a = 0
	}
	if limit := int64(s.size) + 2*PageSize; a > limit {
		a = limit
	}
	return uint64(a)
}

// addr returns a byte address near a hot spot.
func (s *spots) addr() uint64 { return s.page() + uint64(s.rng.Intn(PageSize)) }

// length returns an access length: mostly short, sometimes spanning up to
// three pages.
func (s *spots) length() int {
	if s.rng.Intn(4) == 0 {
		return s.rng.Intn(3*PageSize + 1)
	}
	return s.rng.Intn(17)
}

// TestSparseMatchesDense drives Memory and the dense oracle with the same
// random sequence of Map, Unmap, Read, Write, Translate, ReadPhys and
// WritePhys calls and requires identical results and identical bytes —
// including page-straddling spans, spans across unmapped holes and across
// leaf boundaries, and the last page of a full 2 GB virtual space.
func TestSparseMatchesDense(t *testing.T) {
	geoms := []struct {
		name       string
		phys, virt uint64
	}{
		{"machine", 16 << 20, 1 << 31},
		{"partial-leaves", (2*leafSize + 7) * PageSize, (3*leafSize + 5) * PageSize},
	}
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	for _, g := range geoms {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				checkSparseMatchesDense(t, g.phys, g.virt, seed)
			})
		}
	}
}

func checkSparseMatchesDense(t *testing.T, physSize, virtSize uint64, seed int64) {
	m, err := NewMemory(physSize, virtSize)
	if err != nil {
		t.Fatal(err)
	}
	d := newDenseMemory(physSize, virtSize)
	rng := rand.New(rand.NewSource(seed))
	virt, phys := newSpots(rng, virtSize), newSpots(rng, physSize)
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	const ops = 4000
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 2: // Map, occasionally misaligned or out of range
			v, p := uint32(virt.page()), phys.page()
			size := uint64(1+rng.Intn(4)) * PageSize
			if rng.Intn(20) == 0 {
				p += uint64(rng.Intn(PageSize))
			}
			if (m.Map(v, p, size) == nil) != (d.Map(v, p, size) == nil) {
				t.Fatalf("op %d: Map(%#x, %#x, %#x) disagrees", op, v, p, size)
			}
		case k < 3:
			v, size := uint32(virt.addr()), uint64(rng.Intn(4*PageSize))
			m.Unmap(v, size)
			d.Unmap(v, size)
		case k < 5:
			v, n := uint32(virt.addr()), virt.length()
			got, want := make([]byte, n), make([]byte, n)
			okM, okD := m.Read(v, got), d.Read(v, want)
			if okM != okD || okM && !bytes.Equal(got, want) {
				t.Fatalf("op %d: Read(%#x, %d) = %v, oracle %v (or bytes differ)", op, v, n, okM, okD)
			}
		case k < 7:
			v, src := uint32(virt.addr()), fill(virt.length())
			if okM, okD := m.Write(v, src), d.Write(v, src); okM != okD {
				t.Fatalf("op %d: Write(%#x, %d bytes) = %v, oracle %v", op, v, len(src), okM, okD)
			}
		case k < 8:
			v := uint32(virt.addr())
			pM, okM := m.Translate(v)
			pD, okD := d.Translate(v)
			if pM != pD || okM != okD {
				t.Fatalf("op %d: Translate(%#x) = %#x, %v; oracle %#x, %v", op, v, pM, okM, pD, okD)
			}
		case k < 9:
			p, n := phys.addr(), phys.length()
			got, want := make([]byte, n), make([]byte, n)
			errM, errD := m.ReadPhys(p, got), d.ReadPhys(p, want)
			if (errM == nil) != (errD == nil) || errM == nil && !bytes.Equal(got, want) {
				t.Fatalf("op %d: ReadPhys(%#x, %d) = %v, oracle %v (or bytes differ)", op, p, n, errM, errD)
			}
		default:
			p, src := phys.addr(), fill(phys.length())
			if errM, errD := m.WritePhys(p, src), d.WritePhys(p, src); (errM == nil) != (errD == nil) {
				t.Fatalf("op %d: WritePhys(%#x, %d bytes) = %v, oracle %v", op, p, len(src), errM, errD)
			}
		}
	}
	// Final state: every physical byte, and the translation of every page
	// near a hot spot (the only pages Map can have touched), match.
	got, want := make([]byte, PageSize), make([]byte, PageSize)
	for p := uint64(0); p < physSize; p += PageSize {
		if m.ReadPhys(p, got) != nil || d.ReadPhys(p, want) != nil || !bytes.Equal(got, want) {
			t.Fatalf("physical page %#x differs from the oracle", p)
		}
	}
	for _, h := range virt.hot {
		for a := int64(h) - 4*PageSize; a <= int64(h)+4*PageSize; a += PageSize {
			if a < 0 || a >= 1<<32 {
				continue
			}
			pM, okM := m.Translate(uint32(a))
			pD, okD := d.Translate(uint32(a))
			if pM != pD || okM != okD {
				t.Fatalf("final Translate(%#x) = %#x, %v; oracle %#x, %v", a, pM, okM, pD, okD)
			}
		}
	}
}
