package machine

import (
	"bytes"
	"errors"
	"testing"

	"nanobench/internal/x86"
)

// TestStraddlingAccessFaults pins the page-fault contract of memory
// operands that run off the end of a mapping: a load of any width raises
// #PF instead of reading zeros past the edge, a store faults without
// committing a single byte (so the installed program can never go stale
// behind a fault), and the step and trace tiers both report the identical
// fault.
func TestStraddlingAccessFaults(t *testing.T) {
	const end = testDataBase + 4<<20 // first unmapped byte after the data area
	cases := []struct {
		name   string
		asm    string
		addr   uint32
		reason string
	}{
		{"load8", "mov rax, [r14]", end - 4, "#PF: partial load"},
		{"movaps-load-low", "movaps xmm0, [r14]", end - 4, "#PF: partial load"},
		{"movaps-load-high", "movaps xmm0, [r14]", end - 8, "#PF: partial vector load"},
		{"addps-load-high", "addps xmm0, [r14]", end - 8, "#PF: partial vector load"},
		{"store8", "mov [r14], rbx", end - 4, "#PF: partial store"},
		{"movaps-store-low", "movaps [r14], xmm0", end - 4, "#PF: partial vector store"},
		{"movaps-store-high", "movaps [r14], xmm0", end - 8, "#PF: partial vector store"},
	}
	pattern := bytes.Repeat([]byte{0xA5}, 16)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := x86.MustAssemble(`
				mov rbx, -1
				movq xmm0, rbx
				add rax, 1
				add rcx, 2
				mov r14, ` + itoa(int64(tc.addr)) + `
				` + tc.asm + `
				ret`)
			var first string
			for _, e := range []Engine{EngineStep, EngineTrace} {
				m := newTestMachine(t)
				m.SetEngine(e)
				if err := m.WriteData(end-16, pattern); err != nil {
					t.Fatal(err)
				}
				if err := m.WriteCode(testCodeBase, code); err != nil {
					t.Fatal(err)
				}
				_, err := m.Run(testCodeBase)
				var f *Fault
				if !errors.As(err, &f) || f.Reason != tc.reason {
					t.Fatalf("%v: err = %v, want fault %q", e, err, tc.reason)
				}
				if first == "" {
					first = err.Error()
				} else if err.Error() != first {
					t.Fatalf("%v: fault %q differs from step's %q", e, err, first)
				}
				var got [16]byte
				if !m.Mem.Read(end-16, got[:]) || !bytes.Equal(got[:], pattern) {
					t.Fatalf("%v: faulting access changed memory: % x", e, got)
				}
			}
		})
	}
}
