package machine

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"nanobench/internal/x86"
)

func encode(t *testing.T, buf []byte, in x86.Instr) []byte {
	t.Helper()
	out, err := x86.EncodeInstr(buf, in)
	if err != nil {
		t.Fatalf("encode %s: %v", in.String(), err)
	}
	return out
}

// TestWriteCodeReinstallsProgram regenerates code at the same base (as the
// runner does between unroll variants) and checks the new image executes,
// not a stale pre-decoded program.
func TestWriteCodeReinstallsProgram(t *testing.T) {
	m := newTestMachine(t)
	run(t, m, "mov rax, 1\nmov rbx, 2\nadd rax, rbx")
	if got := m.Reg(x86.RAX); got != 3 {
		t.Fatalf("first image: RAX = %d, want 3", got)
	}
	// Shorter, different image at the same base.
	run(t, m, "mov rax, 5")
	if got := m.Reg(x86.RAX); got != 5 {
		t.Fatalf("regenerated image: RAX = %d, want 5 (stale program executed?)", got)
	}
}

// TestWriteDataIntoCodeInvalidates patches installed code with WriteData
// and checks the patched bytes are re-decoded.
func TestWriteDataIntoCodeInvalidates(t *testing.T) {
	m := newTestMachine(t)
	ins1 := encode(t, nil, x86.I(x86.MOV, x86.RAX, x86.Imm(1)))
	ins7 := encode(t, nil, x86.I(x86.MOV, x86.RAX, x86.Imm(7)))
	if len(ins1) != len(ins7) {
		t.Fatalf("encodings differ in length: %d vs %d", len(ins1), len(ins7))
	}
	code := encode(t, append([]byte(nil), ins1...), x86.I(x86.RET))
	if err := m.WriteCode(testCodeBase, code); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(testCodeBase); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(x86.RAX); got != 1 {
		t.Fatalf("RAX = %d, want 1", got)
	}
	if !m.ProgramValid(testCodeBase, len(code)) {
		t.Fatal("program should be valid after install and run")
	}
	// Patch the first instruction in place.
	if err := m.WriteData(testCodeBase, ins7); err != nil {
		t.Fatal(err)
	}
	if m.ProgramValid(testCodeBase, len(code)) {
		t.Fatal("program should be invalid after a write into the code region")
	}
	if _, err := m.Run(testCodeBase); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(x86.RAX); got != 7 {
		t.Fatalf("after patch: RAX = %d, want 7 (stale decode executed?)", got)
	}
}

// TestSelfModifyingStoreInvalidates runs a loop whose body patches the
// immediate of an already-executed (and therefore already pre-decoded)
// instruction; the second iteration must see the patched value.
func TestSelfModifyingStoreInvalidates(t *testing.T) {
	m := newTestMachine(t)
	var buf []byte
	buf = encode(t, buf, x86.I(x86.MOV, x86.RCX, x86.Imm(2)))
	buf = encode(t, buf, x86.I(x86.MOV, x86.RBX, x86.Imm(9)))
	xOff := len(buf) // offset of the patched MOV RAX, imm64
	// An immediate above 2^32 forces the 10-byte REX.W B8 imm64 form, so
	// the 8-byte store below patches exactly the immediate field.
	buf = encode(t, buf, x86.I(x86.MOV, x86.RAX, x86.Imm(1<<40)))
	if len(buf)-xOff != 10 {
		t.Fatalf("MOV RAX, imm64 encoded to %d bytes, want 10", len(buf)-xOff)
	}
	immOff := xOff + 2 // REX.W + opcode, then imm64
	buf = encode(t, buf, x86.I(x86.MOV, x86.MemAt(testCodeBase+uint32(immOff)), x86.RBX))
	buf = encode(t, buf, x86.I(x86.DEC, x86.RCX))
	buf = encode(t, buf, x86.I(x86.JNZ, x86.Imm(int64(xOff)-int64(len(buf)+6))))
	buf = encode(t, buf, x86.I(x86.RET))

	if err := m.WriteCode(testCodeBase, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(testCodeBase); err != nil {
		t.Fatal(err)
	}
	// Iteration 1 executes MOV RAX, 1<<40 and then patches it to MOV RAX,
	// 9; iteration 2 must re-decode and load 9.
	if got := m.Reg(x86.RAX); got != 9 {
		t.Fatalf("RAX = %d, want 9 (stale pre-decoded program executed)", got)
	}
	if m.ProgramValid(testCodeBase, len(buf)) {
		t.Fatal("program should be dropped after self-modifying store")
	}
}

// TestRebootDropsProgram checks Reboot invalidates the pre-decoded
// program: the code region is re-mapped onto fresh frames, so the old
// decodes describe bytes that no longer exist.
func TestRebootDropsProgram(t *testing.T) {
	m := newTestMachine(t)
	code := encode(t, encode(t, nil, x86.I(x86.MOV, x86.RAX, x86.Imm(1))), x86.I(x86.RET))
	if err := m.WriteCode(testCodeBase, code); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(testCodeBase); err != nil {
		t.Fatal(err)
	}
	if !m.ProgramValid(testCodeBase, len(code)) {
		t.Fatal("program should be valid after run")
	}
	m.Reboot()
	if m.ProgramValid(testCodeBase, len(code)) {
		t.Fatal("program should be dropped by Reboot")
	}
}

// TestRewrittenCodeRunsCurrentBytes pins that code runs from its current
// bytes wherever it lives: nanoBench generates its benchmark code at run
// time and executes it from memory, so a rewrite must take effect even
// outside the installed program. A stub MOV RBX, 1; RET in the data area,
// called from the program, is rewritten to MOV RBX, 2; RET — once with
// WriteData between two runs, and once by a simulated store between two
// CALLs in one run. Every call after the rewrite must leave RBX = 2, on
// both engine tiers.
func TestRewrittenCodeRunsCurrentBytes(t *testing.T) {
	const stub = testDataBase + 0x1000
	stubCode := func(v int64) []byte {
		code := encode(t, encode(t, nil, x86.I(x86.MOV, x86.RBX, x86.Imm(v))), x86.I(x86.RET))
		if len(code) > 8 {
			t.Fatalf("stub encoded to %d bytes, want at most 8", len(code))
		}
		return append(code, make([]byte, 8-len(code))...)
	}
	stub1, stub2 := stubCode(1), stubCode(2)
	// callStub appends a CALL rel32 (5 bytes) to the stub.
	callStub := func(buf []byte) []byte {
		return encode(t, buf, x86.I(x86.CALL, x86.Imm(int64(stub)-int64(testCodeBase+len(buf)+5))))
	}
	install := func(t *testing.T, e Engine, code []byte) *Machine {
		m := newTestMachine(t)
		m.SetEngine(e)
		if err := m.WriteData(stub, stub1); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteCode(testCodeBase, code); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, e := range []Engine{EngineStep, EngineTrace} {
		t.Run(e.String()+"/WriteData", func(t *testing.T) {
			m := install(t, e, encode(t, callStub(nil), x86.I(x86.RET)))
			for i, want := range []uint64{1, 2} {
				if i == 1 {
					if err := m.WriteData(stub, stub2); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := m.Run(testCodeBase); err != nil {
					t.Fatal(err)
				}
				if got := m.Reg(x86.RBX); got != want {
					t.Fatalf("run %d: RBX = %d, want %d (stale decode of rewritten stub?)", i+1, got, want)
				}
			}
		})
		t.Run(e.String()+"/store", func(t *testing.T) {
			var patch uint64
			for i, b := range stub2 {
				patch |= uint64(b) << (8 * i)
			}
			code := callStub(nil)
			code = encode(t, code, x86.I(x86.MOV, x86.R8, x86.RBX))
			code = encode(t, code, x86.I(x86.MOV, x86.RAX, x86.Imm(int64(patch))))
			code = encode(t, code, x86.I(x86.MOV, x86.MemAt(stub), x86.RAX))
			code = callStub(code)
			code = encode(t, code, x86.I(x86.RET))
			m := install(t, e, code)
			if _, err := m.Run(testCodeBase); err != nil {
				t.Fatal(err)
			}
			if got := m.Reg(x86.R8); got != 1 {
				t.Fatalf("first call: RBX = %d, want 1", got)
			}
			if got := m.Reg(x86.RBX); got != 2 {
				t.Fatalf("call after the store: RBX = %d, want 2 (stale decode of rewritten stub?)", got)
			}
		})
	}
}

// TestDecodeMemoOverflowStaysSmall fills a machine's decode memo to its
// cap and decodes one more encoding. The reset that makes room must
// allocate little (a map presized to the cap is about 19 MB), leave the
// memo holding just the new encoding, and decode exactly what a fresh
// machine decodes; the program must still run correctly afterwards.
func TestDecodeMemoOverflowStaysSmall(t *testing.T) {
	code := x86.MustAssemble("mov rax, 6\nmov rbx, 7\nimul rax, rbx\nret")
	fresh := newTestMachine(t)
	if err := fresh.WriteData(testCodeBase, code); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.decodeRaw(testCodeBase)
	if err != nil {
		t.Fatal(err)
	}

	m := newTestMachine(t)
	if err := m.WriteData(testCodeBase, code); err != nil {
		t.Fatal(err)
	}
	for i := 0; len(m.decMemo) < decMemoCap; i++ {
		var k decKey
		binary.LittleEndian.PutUint64(k.b[:], uint64(i))
		k.n = 15 // no real window: a real one decodes to fewer bytes
		m.decMemo[k] = x86.DecodedInstr{}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := m.decodeRaw(testCodeBase)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("decoding past the memo cap allocated %d bytes, want under 1 MB", alloc)
	}
	if len(m.decMemo) != 1 {
		t.Errorf("memo holds %d entries after the reset, want 1", len(m.decMemo))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded after the reset:\n%+v\nwant a fresh machine's:\n%+v", got, want)
	}
	if err := m.WriteCode(testCodeBase, code); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(testCodeBase); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(x86.RAX); got != 42 {
		t.Errorf("RAX = %d after the reset, want 42", got)
	}
}
