package assign

import (
	"fmt"
	"maps"
	"math"

	"repro/internal/inplace"
	"repro/internal/memlib"
	"repro/internal/sbd"
	"repro/internal/spec"
)

// checkAssignment checks an assignment of s under pats as a certificate,
// from the spec and memlib alone, without the search's own aggregates:
// every accessed group is bound exactly once, on-chip iff it fits the
// technology's threshold, and GroupMem agrees; min(count, on-chip groups)
// memories are allocated on-chip; each memory's words are its members'
// sum (their in-place peak under p.InPlace) and its width the widest
// member's (rounded to a catalog width off-chip); its ports are the
// fewest that fit every pattern's per-memory multiplicity, within
// MaxPorts; and every binding's power and area, and the cost triple, equal
// the memlib re-pricing bit for bit, summed in binding order.
func checkAssignment(s *spec.Spec, pats []sbd.Pattern, tech *memlib.Tech, count int, p Params, a *Assignment) error {
	p.normalize()
	limit := tech.OnChipMaxWords
	if limit == 0 {
		limit = 64 * 1024
	}
	groups := make(map[string]spec.BasicGroup, len(s.Groups))
	frame := make(map[string]uint64, len(s.Groups))
	for i, n := range s.FrameAccesses() {
		groups[s.Groups[i].Name] = s.Groups[i]
		frame[s.Groups[i].Name] = n
	}
	bound := map[string]string{}
	nOn := 0
	var onAcc uint64
	for _, g := range s.Groups {
		if frame[g.Name] > 0 && g.Words <= limit {
			nOn++
			onAcc += frame[g.Name]
		}
	}
	if want := min(count, nOn); len(a.OnChip) != want {
		return fmt.Errorf("%d on-chip memories, want %d", len(a.OnChip), want)
	}
	var area, power, offPower float64
	for _, side := range []struct {
		binds  []Binding
		onChip bool
	}{{a.OnChip, true}, {a.OffChip, false}} {
		for _, b := range side.binds {
			if len(b.Groups) == 0 {
				return fmt.Errorf("memory %s has no members", b.Mem.Name)
			}
			var acc uint64
			bits := 0
			for _, name := range b.Groups {
				g, ok := groups[name]
				switch {
				case !ok:
					return fmt.Errorf("memory %s holds unknown group %s", b.Mem.Name, name)
				case bound[name] != "":
					return fmt.Errorf("group %s bound to %s and %s", name, bound[name], b.Mem.Name)
				case frame[name] == 0:
					return fmt.Errorf("unaccessed group %s bound to %s", name, b.Mem.Name)
				case (g.Words <= limit) != side.onChip:
					return fmt.Errorf("group %s of %d words on the wrong side of the %d-word threshold", name, g.Words, limit)
				}
				bound[name] = b.Mem.Name
				acc += frame[name]
				bits = max(bits, g.Bits)
			}
			words := inplace.SumWords(s, b.Groups)
			if p.InPlace {
				words = inplace.PeakWords(s, b.Groups)
			}
			if !side.onChip {
				bits = memlib.CatalogWidth(bits)
			}
			ports := 1
			for _, pt := range pats {
				demand := 0
				for _, name := range b.Groups {
					demand += pt.Access[name]
				}
				ports = max(ports, demand)
			}
			switch {
			case b.Mem.Words != words:
				return fmt.Errorf("memory %s has %d words, its members need %d", b.Mem.Name, b.Mem.Words, words)
			case b.Mem.Bits != bits:
				return fmt.Errorf("memory %s is %d bits wide, want %d", b.Mem.Name, b.Mem.Bits, bits)
			case b.Mem.Ports != ports:
				return fmt.Errorf("memory %s has %d ports, its patterns need %d", b.Mem.Name, b.Mem.Ports, ports)
			case ports > maxPorts:
				return fmt.Errorf("memory %s needs %d ports, above the cap %d", b.Mem.Name, ports, maxPorts)
			}
			rate := float64(acc) / tech.FramePeriod
			var wantArea, wantPower float64
			if side.onChip {
				if words > tech.SRAM.MaxWords {
					return fmt.Errorf("memory %s: %d words exceed the generator limit", b.Mem.Name, words)
				}
				wantArea = tech.SRAM.Area(words, bits, ports)
				wantPower = tech.SRAM.Power(words, bits, ports, rate)
				area += wantArea
				power += wantPower
			} else {
				pw, err := tech.DRAM.Power(words, bits, ports, rate)
				if err != nil {
					return fmt.Errorf("memory %s: %v", b.Mem.Name, err)
				}
				wantPower = pw
				offPower += pw
			}
			if math.Float64bits(b.Area) != math.Float64bits(wantArea) || math.Float64bits(b.Power) != math.Float64bits(wantPower) {
				return fmt.Errorf("memory %s priced area %v power %v, memlib gives %v and %v",
					b.Mem.Name, b.Area, b.Power, wantArea, wantPower)
			}
		}
	}
	for _, g := range s.Groups {
		if frame[g.Name] > 0 && bound[g.Name] == "" {
			return fmt.Errorf("accessed group %s is unbound", g.Name)
		}
	}
	if !maps.Equal(bound, a.GroupMem) {
		return fmt.Errorf("GroupMem %v, bindings give %v", a.GroupMem, bound)
	}
	if tech.Bus.Enabled() {
		area += tech.Bus.Area(len(a.OnChip))
		power += tech.Bus.Power(len(a.OnChip), float64(onAcc)/tech.FramePeriod)
	}
	want := Cost{OnChipArea: area, OnChipPower: power, OffChipPower: offPower}
	for _, c := range [][2]float64{
		{a.Cost.OnChipArea, want.OnChipArea}, {a.Cost.OnChipPower, want.OnChipPower}, {a.Cost.OffChipPower, want.OffChipPower},
	} {
		if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
			return fmt.Errorf("cost %+v, memlib re-pricing gives %+v", a.Cost, want)
		}
	}
	return nil
}
