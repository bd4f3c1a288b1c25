package x86

import (
	"encoding/binary"
	"fmt"
)

type decKey struct {
	prefix byte
	esc    bool
	opcode byte
}

var decIndex = map[decKey][]*form{}

func buildDecodeIndex() {
	for i := range forms {
		f := &forms[i]
		if f.PlusR {
			for r := byte(0); r < 8; r++ {
				k := decKey{f.Prefix, f.Esc0F, f.Opcode + r}
				decIndex[k] = append(decIndex[k], f)
			}
			continue
		}
		k := decKey{f.Prefix, f.Esc0F, f.Opcode}
		decIndex[k] = append(decIndex[k], f)
	}
}

// Decode decodes the instruction at the start of buf, returning the
// instruction and its encoded length.
func Decode(buf []byte) (Instr, int, error) {
	i := 0
	var prefix byte
prefixes:
	for i < len(buf) {
		switch buf[i] {
		case 0x66, 0xF2, 0xF3:
			if prefix != 0 {
				return Instr{}, 0, fmt.Errorf("x86: multiple legacy prefixes")
			}
			prefix = buf[i]
			i++
		default:
			break prefixes
		}
	}
	var rex byte
	if i < len(buf) && buf[i]&0xF0 == 0x40 {
		rex = buf[i]
		i++
	}
	esc := false
	if i < len(buf) && buf[i] == 0x0F {
		esc = true
		i++
	}
	if i >= len(buf) {
		return Instr{}, 0, fmt.Errorf("x86: truncated instruction")
	}
	opcode := buf[i]
	i++

	for _, f := range decIndex[decKey{prefix, esc, opcode}] {
		in, n, ok, err := tryDecode(f, buf, i, opcode, rex)
		if err != nil {
			return Instr{}, 0, err
		}
		if ok {
			return in, n, nil
		}
	}
	return Instr{}, 0, fmt.Errorf("x86: unknown opcode % X (prefix=%02X esc=%v)", opcode, prefix, esc)
}

// tryDecode attempts to decode the remainder of an instruction according to
// form f. It returns ok=false (with nil error) when the form does not match
// (e.g. a /digit mismatch), so the caller can try the next candidate.
func tryDecode(f *form, buf []byte, i int, opcode byte, rex byte) (Instr, int, bool, error) {
	rexW := rex&0x08 != 0
	rexR := (rex >> 2) & 1
	rexX := (rex >> 1) & 1
	rexB := rex & 1
	if f.RexW != rexW {
		return Instr{}, 0, false, nil
	}

	if f.hasFixed {
		if i >= len(buf) || buf[i] != f.Fixed {
			return Instr{}, 0, false, nil
		}
		return Instr{Op: f.Op}, i + 1, true, nil
	}

	args := make([]Arg, len(f.Opds))

	if f.PlusR {
		r := Reg(opcode&7 | rexB<<3)
		if f.Opds[f.PlusRIdx] == KXMM {
			r = XMM0 + r
		}
		args[f.PlusRIdx] = r
	}

	if f.HasModRM {
		if i >= len(buf) {
			return Instr{}, 0, false, fmt.Errorf("x86: truncated ModRM")
		}
		modrm := buf[i]
		i++
		mod := modrm >> 6
		regField := (modrm >> 3) & 7
		rm := modrm & 7

		if f.Digit >= 0 && regField != byte(f.Digit) {
			return Instr{}, 0, false, nil
		}
		if f.RegIdx >= 0 {
			enc := regField | rexR<<3
			if f.Opds[f.RegIdx] == KXMM {
				args[f.RegIdx] = XMM0 + Reg(enc)
			} else {
				args[f.RegIdx] = Reg(enc)
			}
		}

		rmKind := f.Opds[f.RMIdx]
		if mod == 3 {
			if rmKind == KM64 || rmKind == KM8 {
				return Instr{}, 0, false, nil
			}
			enc := rm | rexB<<3
			if rmKind == KXM128 {
				args[f.RMIdx] = XMM0 + Reg(enc)
			} else {
				args[f.RMIdx] = Reg(enc)
			}
		} else {
			mem, n, err := decodeMem(buf, i, mod, rm, rexX, rexB)
			if err != nil {
				return Instr{}, 0, false, err
			}
			i = n
			args[f.RMIdx] = mem
		}
	}

	for idx, k := range f.Opds {
		if k == KCL {
			args[idx] = RCX
		}
	}

	switch f.Imm {
	case imm8:
		if i+1 > len(buf) {
			return Instr{}, 0, false, fmt.Errorf("x86: truncated imm8")
		}
		args[f.ImmIdx] = Imm(int8(buf[i]))
		i++
	case imm32, rel32:
		if i+4 > len(buf) {
			return Instr{}, 0, false, fmt.Errorf("x86: truncated imm32")
		}
		args[f.ImmIdx] = Imm(int32(binary.LittleEndian.Uint32(buf[i:])))
		i += 4
	case imm64:
		if i+8 > len(buf) {
			return Instr{}, 0, false, fmt.Errorf("x86: truncated imm64")
		}
		args[f.ImmIdx] = Imm(int64(binary.LittleEndian.Uint64(buf[i:])))
		i += 8
	}

	return Instr{Op: f.Op, Args: args}, i, true, nil
}

func decodeMem(buf []byte, i int, mod, rm, rexX, rexB byte) (Mem, int, error) {
	m := Mem{Base: RegNone, Index: RegNone, Scale: 1}
	if rm == 4 {
		// SIB byte.
		if i >= len(buf) {
			return m, 0, fmt.Errorf("x86: truncated SIB")
		}
		sib := buf[i]
		i++
		scale := sib >> 6
		index := (sib >> 3) & 7
		base := sib & 7
		if index != 4 || rexX == 1 {
			m.Index = Reg(index | rexX<<3)
			m.Scale = 1 << scale
		}
		if base == 5 && mod == 0 {
			// No base register: disp32 (absolute if no index either).
			if i+4 > len(buf) {
				return m, 0, fmt.Errorf("x86: truncated disp32")
			}
			d := binary.LittleEndian.Uint32(buf[i:])
			i += 4
			if m.Index == RegNone {
				m.AbsValid = true
				m.Abs = d
			} else {
				m.Disp = int32(d)
			}
			return m, i, nil
		}
		m.Base = Reg(base | rexB<<3)
	} else if rm == 5 && mod == 0 {
		return m, 0, fmt.Errorf("x86: RIP-relative addressing not supported")
	} else {
		m.Base = Reg(rm | rexB<<3)
	}

	switch mod {
	case 1:
		if i+1 > len(buf) {
			return m, 0, fmt.Errorf("x86: truncated disp8")
		}
		m.Disp = int32(int8(buf[i]))
		i++
	case 2:
		if i+4 > len(buf) {
			return m, 0, fmt.Errorf("x86: truncated disp32")
		}
		m.Disp = int32(binary.LittleEndian.Uint32(buf[i:]))
		i += 4
	}
	return m, i, nil
}

// Disassemble decodes consecutive instructions from buf until it is
// exhausted, rendering each in Intel syntax. It is intended for debugging
// and test output.
func Disassemble(buf []byte) ([]string, error) {
	var out []string
	for off := 0; off < len(buf); {
		in, n, err := Decode(buf[off:])
		if err != nil {
			return out, fmt.Errorf("at offset %d: %w", off, err)
		}
		out = append(out, in.String())
		off += n
	}
	return out, nil
}
