package policy

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// QLRUParams describes one variant of the Quad-Age LRU (QLRU / 2-bit RRIP)
// policy family, following the naming scheme of Section VI-B2 of the
// nanoBench paper: QLRU_Hxy_M{x|Rpx}_R{0,1,2}_U{0,1,2,3}[_UMO].
type QLRUParams struct {
	// HitX and HitY define the hit promotion function:
	//   H(3) = HitX, H(2) = HitY, H(a) = 0 otherwise.
	HitX, HitY uint8
	// InsertAge is the age assigned to a block on a miss.
	InsertAge uint8
	// InsertProb, if nonzero, makes insertion probabilistic (the MRpx
	// form): the block is inserted with age InsertAge with probability
	// 1/InsertProb, and with age 3 otherwise.
	InsertProb int
	// RVariant selects where a block is inserted on a miss:
	//   R0: leftmost empty way; when full, leftmost age-3 way (undefined
	//       when no age-3 way exists).
	//   R1: like R0, but when full and no age-3 way exists, the leftmost
	//       way is replaced.
	//   R2: like R0, but blocks are inserted in the rightmost empty way.
	RVariant uint8
	// UVariant selects how ages are adjusted when, after an access, no
	// block with age 3 remains (i is the accessed block, M the maximum
	// current age):
	//   U0: age'(b) = age(b) + (3-M) for all b
	//   U1: like U0 but age(i) is unchanged
	//   U2: age'(b) = age(b) + 1 for all b
	//   U3: like U2 but age(i) is unchanged
	UVariant uint8
	// UpdateOnMissOnly (the _UMO suffix) applies the age adjustment only
	// on a miss, before victim selection, rather than after every access.
	UpdateOnMissOnly bool
}

// Validate checks parameter ranges and the combination rules from the
// paper (R0 requires an age-3 block to always exist, so it cannot be
// combined with U2 or U3).
func (q QLRUParams) Validate() error {
	if q.HitX > 2 {
		return fmt.Errorf("policy: QLRU hit promotion x must be 0..2, got %d", q.HitX)
	}
	if q.HitY > 1 {
		return fmt.Errorf("policy: QLRU hit promotion y must be 0..1, got %d", q.HitY)
	}
	if q.InsertAge > 3 {
		return fmt.Errorf("policy: QLRU insertion age must be 0..3, got %d", q.InsertAge)
	}
	if q.RVariant > 2 {
		return fmt.Errorf("policy: QLRU R variant must be 0..2, got %d", q.RVariant)
	}
	if q.UVariant > 3 {
		return fmt.Errorf("policy: QLRU U variant must be 0..3, got %d", q.UVariant)
	}
	if q.RVariant == 0 && (q.UVariant == 2 || q.UVariant == 3) {
		return fmt.Errorf("policy: QLRU R0 cannot be combined with U2/U3 (no age-3 block guaranteed)")
	}
	if q.InsertProb < 0 {
		return fmt.Errorf("policy: QLRU insertion probability must be positive")
	}
	return nil
}

// Name renders the canonical variant name. Built with strconv rather
// than fmt so engines may render names without boxing (benchguard).
func (q QLRUParams) Name() string {
	var sb strings.Builder
	sb.WriteString("QLRU_H")
	sb.WriteString(strconv.Itoa(int(q.HitX)))
	sb.WriteString(strconv.Itoa(int(q.HitY)))
	sb.WriteString("_M")
	if q.InsertProb > 0 {
		sb.WriteString("R")
		sb.WriteString(strconv.Itoa(q.InsertProb))
		sb.WriteString(strconv.Itoa(int(q.InsertAge)))
	} else {
		sb.WriteString(strconv.Itoa(int(q.InsertAge)))
	}
	sb.WriteString("_R")
	sb.WriteString(strconv.Itoa(int(q.RVariant)))
	sb.WriteString("_U")
	sb.WriteString(strconv.Itoa(int(q.UVariant)))
	if q.UpdateOnMissOnly {
		sb.WriteString("_UMO")
	}
	return sb.String()
}

// ParseQLRU parses a variant name such as "QLRU_H11_M1_R1_U2" or
// "QLRU_H11_MR161_R1_U2_UMO" (probabilistic insertion with p=16, age=1).
func ParseQLRU(name string) (QLRUParams, error) {
	var q QLRUParams
	upper := strings.ToUpper(strings.TrimSpace(name))
	parts := strings.Split(upper, "_")
	if len(parts) < 5 || parts[0] != "QLRU" {
		return q, fmt.Errorf("policy: malformed QLRU name %q", name)
	}
	if len(parts) == 6 {
		if parts[5] != "UMO" {
			return q, fmt.Errorf("policy: malformed QLRU suffix in %q", name)
		}
		q.UpdateOnMissOnly = true
	} else if len(parts) > 6 {
		return q, fmt.Errorf("policy: malformed QLRU name %q", name)
	}

	h := parts[1]
	if len(h) != 3 || h[0] != 'H' {
		return q, fmt.Errorf("policy: malformed hit promotion %q in %q", h, name)
	}
	q.HitX = h[1] - '0'
	q.HitY = h[2] - '0'

	m := parts[2]
	if len(m) < 2 || m[0] != 'M' {
		return q, fmt.Errorf("policy: malformed insertion age %q in %q", m, name)
	}
	if m[1] == 'R' {
		digits := m[2:]
		if len(digits) < 2 {
			return q, fmt.Errorf("policy: malformed probabilistic insertion %q in %q", m, name)
		}
		p, err := strconv.Atoi(digits[:len(digits)-1])
		if err != nil || p < 2 {
			return q, fmt.Errorf("policy: malformed probability in %q", name)
		}
		q.InsertProb = p
		q.InsertAge = digits[len(digits)-1] - '0'
	} else {
		v, err := strconv.Atoi(m[1:])
		if err != nil {
			return q, fmt.Errorf("policy: malformed insertion age in %q", name)
		}
		q.InsertAge = uint8(v)
	}

	r := parts[3]
	if len(r) != 2 || r[0] != 'R' {
		return q, fmt.Errorf("policy: malformed R variant %q in %q", r, name)
	}
	q.RVariant = r[1] - '0'

	u := parts[4]
	if len(u) != 2 || u[0] != 'U' {
		return q, fmt.Errorf("policy: malformed U variant %q in %q", u, name)
	}
	q.UVariant = u[1] - '0'

	if err := q.Validate(); err != nil {
		return q, err
	}
	return q, nil
}

// New builds a policy instance for one cache set. rng is required only for
// probabilistic insertion variants.
func (q QLRUParams) New(assoc int, rng *rand.Rand) Policy {
	return &qlru{
		QLRUParams:   q,
		validTracker: newValidTracker(assoc),
		ages:         make([]uint8, assoc),
		rng:          rng,
	}
}

// qlru implements one QLRU variant for a single set.
type qlru struct {
	QLRUParams
	validTracker
	ages []uint8
	rng  *rand.Rand
}

func (p *qlru) Assoc() int { return len(p.valid) }

func (p *qlru) hitPromote(a uint8) uint8 {
	switch a {
	case 3:
		return p.HitX
	case 2:
		return p.HitY
	default:
		return 0
	}
}

// hasAge3 reports whether any valid block has age 3.
func (p *qlru) hasAge3() bool {
	for w, ok := range p.valid {
		if ok && p.ages[w] == 3 {
			return true
		}
	}
	return false
}

// update applies the U-variant age adjustment. i is the accessed way, or
// -1 when the adjustment runs on a miss (UMO variants).
func (p *qlru) update(i int) {
	if p.hasAge3() {
		return
	}
	var maxAge uint8
	any := false
	for w, ok := range p.valid {
		if ok {
			any = true
			if p.ages[w] > maxAge {
				maxAge = p.ages[w]
			}
		}
	}
	if !any {
		return
	}
	delta := 3 - maxAge
	for w, ok := range p.valid {
		if !ok {
			continue
		}
		switch p.UVariant {
		case 0:
			p.ages[w] += delta
		case 1:
			if w != i {
				p.ages[w] += delta
			}
		case 2:
			p.ages[w]++
		case 3:
			if w != i {
				p.ages[w]++
			}
		}
		if p.ages[w] > 3 {
			p.ages[w] = 3
		}
	}
}

func (p *qlru) OnHit(way int) {
	p.ages[way] = p.hitPromote(p.ages[way])
	if !p.UpdateOnMissOnly {
		p.update(way)
	}
}

func (p *qlru) Victim() int {
	if !p.full() {
		if p.RVariant == 2 {
			return p.rightmostEmpty()
		}
		return p.leftmostEmpty()
	}
	if p.UpdateOnMissOnly {
		p.update(-1)
	}
	for w := range p.valid {
		if p.ages[w] == 3 {
			return w
		}
	}
	// No age-3 block. R1 replaces the leftmost block; for R0/R2 the paper
	// leaves this undefined — we also use the leftmost way so behaviour is
	// deterministic.
	return 0
}

func (p *qlru) insertionAge() uint8 {
	if p.InsertProb > 0 {
		if p.rng != nil && p.rng.Intn(p.InsertProb) == 0 {
			return p.InsertAge
		}
		return 3
	}
	return p.InsertAge
}

func (p *qlru) OnFill(way int) {
	p.valid[way] = true
	p.ages[way] = p.insertionAge()
	if !p.UpdateOnMissOnly {
		p.update(way)
	}
}

func (p *qlru) OnInvalidate(way int) {
	p.valid[way] = false
	p.ages[way] = 0
}

func (p *qlru) Reset() {
	p.reset()
	for i := range p.ages {
		p.ages[i] = 0
	}
}

// EnumerateQLRU returns the canonical names of all meaningful deterministic
// QLRU variants: 6 hit-promotion functions × 4 insertion ages × 3 R
// variants × 4 U variants × {“”, UMO}, minus the invalid R0+U2/U3
// combinations.
func EnumerateQLRU() []string {
	var out []string
	for _, hx := range []uint8{0, 1, 2} {
		for _, hy := range []uint8{0, 1} {
			for m := uint8(0); m <= 3; m++ {
				for r := uint8(0); r <= 2; r++ {
					for u := uint8(0); u <= 3; u++ {
						if r == 0 && (u == 2 || u == 3) {
							continue
						}
						for _, umo := range []bool{false, true} {
							q := QLRUParams{HitX: hx, HitY: hy, InsertAge: m,
								RVariant: r, UVariant: u, UpdateOnMissOnly: umo}
							out = append(out, q.Name())
						}
					}
				}
			}
		}
	}
	return out
}
