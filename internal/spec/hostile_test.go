package spec

import (
	"math"
	"math/rand"
)

// hostileStrings stress the canonical encoder's string escaping: HTML
// characters, every kind of escaped control byte, invalid and truncated
// UTF-8, the JavaScript line terminators U+2028/U+2029 and a literal
// replacement rune (which must not be confused with the \ufffd escape
// that invalid bytes become).
var hostileStrings = []string{
	"", "g", "<script>&amp;</script>", `quote"back\slash`, "a/b",
	"\x00\x01\x1f\x7f", "\b\f\n\r\t", "\xff\xfe", "trunc\xe2\x80",
	"\u2028\u2029", "\ufffd", "é日本", "\xed\xa0\x80", "\xf4\x90\x80\x80",
}

// hostileFloats sit on the encoder's format boundaries: the 'e' form is
// used below 1e-6 and at or above 1e21, with the exponent cleaned of its
// leading zero.
var hostileFloats = []float64{
	0, math.Copysign(0, -1), 1, 0.5, 0.1, 1.0 / 3, 1e-6, 1e-7, 9.999999e-7,
	1e20, 1e21, 9.999999999999999e20, 1.5e300, 5e-324, math.MaxFloat64,
	-2.5e-8, 123456789.125, 1 << 40, 1e-100,
}

func hostileString(rng *rand.Rand) string {
	var b []byte
	for n := rng.Intn(4); n > 0; n-- {
		if rng.Intn(4) == 0 {
			for m := rng.Intn(5); m > 0; m-- {
				b = append(b, byte(rng.Intn(256)))
			}
			continue
		}
		b = append(b, hostileStrings[rng.Intn(len(hostileStrings))]...)
	}
	return string(b)
}

func hostileFloat(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return hostileFloats[rng.Intn(len(hostileFloats))]
	case 1:
		if f := rng.Float64() * math.Pow(10, float64(rng.Intn(640)-330)); !math.IsInf(f, 0) {
			return f
		}
		return 0.25
	default:
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0.25
		}
		return f
	}
}

// hostileSpec builds a seeded random specification full of hostile names
// and edge floats. It is not validated (the encoder must not care): empty
// group and access lists, empty but non-nil dependence lists, negative
// sizes and extreme counts all appear.
func hostileSpec(rng *rand.Rand) *Spec {
	s := &Spec{Name: hostileString(rng)}
	if rng.Intn(8) == 0 {
		s.Groups = []BasicGroup{}
	}
	for n := rng.Intn(4); n > 0; n-- {
		s.Groups = append(s.Groups, BasicGroup{
			Name:  hostileString(rng),
			Words: rng.Int63() - 1<<62,
			Bits:  rng.Intn(130) - 1,
		})
	}
	for n := rng.Intn(3); n > 0; n-- {
		l := Loop{Name: hostileString(rng), Iterations: rng.Uint64()}
		for m := rng.Intn(4); m > 0; m-- {
			a := Access{
				ID:    len(l.Accesses),
				Group: hostileString(rng),
				Write: rng.Intn(2) == 0,
				Count: hostileFloat(rng),
			}
			switch rng.Intn(3) {
			case 1:
				a.Deps = []int{}
			case 2:
				for k := rng.Intn(3) + 1; k > 0; k-- {
					a.Deps = append(a.Deps, rng.Intn(20)-5)
				}
			}
			if rng.Intn(2) == 0 {
				a.Site = hostileString(rng)
			}
			if rng.Intn(2) == 0 {
				a.Branch = hostileString(rng)
			}
			l.Accesses = append(l.Accesses, a)
		}
		s.Loops = append(s.Loops, l)
	}
	return s
}

// edgeSpec carries every hostile string as a group, site and branch name
// and every hostile float as an access count, so each edge is pinned
// regardless of what the seeded draws hit.
func edgeSpec() *Spec {
	s := &Spec{Name: "edges<&>\u2028"}
	l := Loop{Name: "edge\x00loop", Iterations: math.MaxUint64}
	for i, name := range hostileStrings {
		s.Groups = append(s.Groups, BasicGroup{Name: name, Words: math.MaxInt64 - int64(i), Bits: i - 1})
		l.Accesses = append(l.Accesses, Access{
			ID: len(l.Accesses), Group: name, Write: i%2 == 0, Count: 1,
			Site: name, Branch: hostileStrings[len(hostileStrings)-1-i],
		})
	}
	for i, f := range hostileFloats {
		l.Accesses = append(l.Accesses, Access{
			ID: len(l.Accesses), Group: "g", Count: f, Deps: []int{i, -i},
		})
	}
	s.Loops = []Loop{l, {Name: "empty"}}
	return s
}
