package nano

import (
	"bytes"

	"nanobench/internal/sim/machine"
	"nanobench/internal/x86"
)

// generate builds the benchmark function of Algorithm 1 as machine code:
//
//	saveRegs
//	initRegs (memory-area pointers, noMem accumulators)
//	codeInit
//	m1 <- readPerfCtrs
//	[mov r15, loopCount]
//	code ... code (localUnroll copies)    [dec r15; jnz back]
//	m2 <- readPerfCtrs
//	(noMem: store accumulators)
//	restoreRegs
//	ret
//
// The counter-reading sequences contain no calls or branches
// (Section IV-B); they use LFENCE for serialization (Section IV-A1).
func (r *Runner) generate(cfg Config, g counterGroup, localUnroll int) ([]byte, error) {
	var buf []byte

	emit := func(ins ...x86.Instr) error {
		var err error
		for _, in := range ins {
			buf, err = x86.EncodeInstr(buf, in)
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Pre-process the benchmark code: replace the pause/resume magic byte
	// sequences before unrolling so every copy gets the patch
	// (Section IV-B). With localUnroll 0 the body is never emitted.
	ctl := globalCtlValue(g)
	var body []byte
	var err error
	if localUnroll > 0 {
		if body, err = r.replaceMarkers(cfg.Code, cfg.NoMem, ctl); err != nil {
			return nil, err
		}
	}
	init, err := r.replaceMarkers(cfg.CodeInit, cfg.NoMem, ctl)
	if err != nil {
		return nil, err
	}

	// Size the buffer for the dominant terms (unrolled body, init, the
	// fixed save/init/restore scaffolding and two counter-read sequences)
	// so the image is built in a single allocation. The estimate only has
	// to be close: append still grows the slice if a counter-read
	// sequence runs long.
	buf = make([]byte, 0, 1024+len(init)+localUnroll*len(body)+128*len(g.reads))

	// --- saveRegs ---
	for gp := 0; gp < x86.NumGP; gp++ {
		if err := emit(x86.I(x86.MOV, x86.MemAt(auxSaveGP+uint32(8*gp)), x86.Reg(gp))); err != nil {
			return nil, err
		}
	}
	for xm := 0; xm < x86.NumXMM; xm++ {
		if err := emit(x86.I(x86.MOVAPS, x86.MemAt(auxSaveXMM+uint32(16*xm)), x86.XMM0+x86.Reg(xm))); err != nil {
			return nil, err
		}
	}

	// --- initRegs: memory-area pointers (Section III-G) ---
	r14 := int64(AreaBase)
	if cfg.UseBigArea {
		r14 = int64(BigAreaBase)
	}
	initRegs := []x86.Instr{
		x86.I(x86.MOV, x86.R14, x86.Imm(r14)),
		x86.I(x86.MOV, x86.RDI, x86.Imm(AreaBase+1*AreaSize)),
		x86.I(x86.MOV, x86.RSI, x86.Imm(AreaBase+2*AreaSize)),
		x86.I(x86.MOV, x86.RBP, x86.Imm(AreaBase+3*AreaSize+AreaSize/2)),
		x86.I(x86.MOV, x86.RSP, x86.Imm(AreaBase+4*AreaSize+AreaSize/2)),
	}
	if cfg.NoMem {
		for s := 0; s < len(g.reads); s++ {
			initRegs = append(initRegs, x86.I(x86.MOV, x86.R8+x86.Reg(s), x86.Imm(0)))
		}
	}
	if err := emit(initRegs...); err != nil {
		return nil, err
	}

	// --- codeInit ---
	buf = append(buf, init...)

	// --- m1 <- readPerfCtrs ---
	buf, err = r.emitReadCtrs(buf, cfg, g, auxM1, true)
	if err != nil {
		return nil, err
	}

	// --- main part: optional loop around localUnroll copies ---
	if cfg.LoopCount > 0 {
		if err := emit(x86.I(x86.MOV, x86.R15, x86.Imm(int64(cfg.LoopCount)))); err != nil {
			return nil, err
		}
	}
	loopStart := len(buf)
	for u := 0; u < localUnroll; u++ {
		buf = append(buf, body...)
	}
	if cfg.LoopCount > 0 {
		if err := emit(x86.I(x86.DEC, x86.R15)); err != nil {
			return nil, err
		}
		// JNZ back to loopStart: encode with the relative displacement
		// from the end of the 6-byte JNZ.
		rel := int64(loopStart) - int64(len(buf)+6)
		if err := emit(x86.I(x86.JNZ, x86.Imm(rel))); err != nil {
			return nil, err
		}
	}

	// --- m2 <- readPerfCtrs ---
	buf, err = r.emitReadCtrs(buf, cfg, g, auxM2, false)
	if err != nil {
		return nil, err
	}

	// --- noMem: dump accumulators (after the measurement) ---
	if cfg.NoMem {
		for s := 0; s < len(g.reads); s++ {
			if err := emit(x86.I(x86.MOV, x86.MemAt(auxNoMemOut+uint32(8*s)), x86.R8+x86.Reg(s))); err != nil {
				return nil, err
			}
		}
	}

	// --- restoreRegs ---
	for xm := 0; xm < x86.NumXMM; xm++ {
		if err := emit(x86.I(x86.MOVAPS, x86.XMM0+x86.Reg(xm), x86.MemAt(auxSaveXMM+uint32(16*xm)))); err != nil {
			return nil, err
		}
	}
	for gp := 0; gp < x86.NumGP; gp++ {
		if err := emit(x86.I(x86.MOV, x86.Reg(gp), x86.MemAt(auxSaveGP+uint32(8*gp)))); err != nil {
			return nil, err
		}
	}
	if err := emit(x86.I(x86.RET)); err != nil {
		return nil, err
	}
	return buf, nil
}

// emitReadCtrs appends the counter-reading sequence. In memory mode the
// values go to the array at dst; in noMem mode they are subtracted from
// (first read) or added to (second read) the accumulator registers
// R8..R12 (Section III-I).
func (r *Runner) emitReadCtrs(buf []byte, cfg Config, g counterGroup, dst uint32, first bool) ([]byte, error) {
	var ins []x86.Instr

	if !cfg.NoMem {
		// Spill the scratch registers the reads clobber; restored below,
		// so the sequence is transparent to the microbenchmark
		// (Section III-B).
		ins = append(ins,
			x86.I(x86.MOV, x86.MemAt(auxScratch+0), x86.RAX),
			x86.I(x86.MOV, x86.MemAt(auxScratch+8), x86.RCX),
			x86.I(x86.MOV, x86.MemAt(auxScratch+16), x86.RDX),
		)
	}
	for s, rd := range g.reads {
		readOp := x86.RDPMC
		if rd.isMSR {
			readOp = x86.RDMSR
		}
		ins = append(ins,
			x86.I(x86.LFENCE),
			x86.I(x86.MOV, x86.RCX, x86.Imm(int64(rd.index))),
			x86.I(readOp),
			x86.I(x86.SHL, x86.RDX, x86.Imm(32)),
			x86.I(x86.OR, x86.RAX, x86.RDX),
		)
		if cfg.NoMem {
			acc := x86.R8 + x86.Reg(s)
			if first {
				ins = append(ins, x86.I(x86.SUB, acc, x86.RAX))
			} else {
				ins = append(ins, x86.I(x86.ADD, acc, x86.RAX))
			}
		} else {
			ins = append(ins, x86.I(x86.MOV, x86.MemAt(dst+uint32(8*s)), x86.RAX))
		}
	}
	ins = append(ins, x86.I(x86.LFENCE))
	if !cfg.NoMem {
		ins = append(ins,
			x86.I(x86.MOV, x86.RAX, x86.MemAt(auxScratch+0)),
			x86.I(x86.MOV, x86.RCX, x86.MemAt(auxScratch+8)),
			x86.I(x86.MOV, x86.RDX, x86.MemAt(auxScratch+16)),
		)
	}

	var err error
	for _, in := range ins {
		buf, err = x86.EncodeInstr(buf, in)
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// containsMarker reports whether code contains a pause/resume magic byte
// sequence.
func containsMarker(code []byte) bool {
	return bytes.Contains(code, PauseCountingBytes) || bytes.Contains(code, ResumeCountingBytes)
}

// replaceMarkers substitutes the magic byte sequences with WRMSR code that
// disables/re-enables all counters via IA32_PERF_GLOBAL_CTRL
// (Section III-I). ctl is the enable value the resume sequence restores.
func (r *Runner) replaceMarkers(code []byte, noMem bool, ctl uint64) ([]byte, error) {
	if len(code) == 0 || !containsMarker(code) {
		return code, nil
	}
	pause, err := r.wrmsrSeq(0, noMem)
	if err != nil {
		return nil, err
	}
	resume, err := r.wrmsrSeq(ctl, noMem)
	if err != nil {
		return nil, err
	}
	out := bytes.ReplaceAll(code, PauseCountingBytes, pause)
	out = bytes.ReplaceAll(out, ResumeCountingBytes, resume)
	return out, nil
}

// wrmsrSeq builds machine code writing v to IA32_PERF_GLOBAL_CTRL. In
// noMem mode RAX/RCX/RDX are reserved registers, so no spill is needed;
// otherwise they are saved and restored around the write.
func (r *Runner) wrmsrSeq(v uint64, noMem bool) ([]byte, error) {
	var ins []x86.Instr
	if !noMem {
		ins = append(ins,
			x86.I(x86.MOV, x86.MemAt(auxScratch2+0), x86.RAX),
			x86.I(x86.MOV, x86.MemAt(auxScratch2+8), x86.RCX),
			x86.I(x86.MOV, x86.MemAt(auxScratch2+16), x86.RDX),
		)
	}
	ins = append(ins,
		x86.I(x86.LFENCE),
		x86.I(x86.MOV, x86.RCX, x86.Imm(machine.MSRPerfGlobalCtl)),
		x86.I(x86.MOV, x86.RAX, x86.Imm(int64(v&0xFFFFFFFF))),
		x86.I(x86.MOV, x86.RDX, x86.Imm(int64(v>>32))),
		x86.I(x86.WRMSR),
	)
	if !noMem {
		ins = append(ins,
			x86.I(x86.MOV, x86.RAX, x86.MemAt(auxScratch2+0)),
			x86.I(x86.MOV, x86.RCX, x86.MemAt(auxScratch2+8)),
			x86.I(x86.MOV, x86.RDX, x86.MemAt(auxScratch2+16)),
		)
	}
	return x86.EncodeAll(ins)
}
