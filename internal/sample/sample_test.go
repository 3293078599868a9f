package sample

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/eda-go/moheco/internal/randx"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"PMC", "pmc", "LHS", "lhs"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("sobol"); err == nil {
		t.Error("expected error for unknown sampler")
	}
}

func TestDrawShapes(t *testing.T) {
	rng := randx.New(1)
	for _, s := range []Sampler{PMC{}, LHS{}} {
		pts := s.Draw(rng, 17, 5)
		if len(pts) != 17 {
			t.Fatalf("%s: got %d points", s.Name(), len(pts))
		}
		for _, p := range pts {
			if len(p) != 5 {
				t.Fatalf("%s: point dim %d", s.Name(), len(p))
			}
		}
		if got := s.Draw(rng, 0, 3); len(got) != 0 {
			t.Errorf("%s: zero draw returned %d", s.Name(), len(got))
		}
	}
}

func TestDrawDeterministic(t *testing.T) {
	for _, s := range []Sampler{PMC{}, LHS{}} {
		a := s.Draw(randx.New(9), 8, 3)
		b := s.Draw(randx.New(9), 8, 3)
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("%s: non-deterministic at [%d][%d]", s.Name(), i, j)
				}
			}
		}
	}
}

// The defining LHS property: projected onto any coordinate, the n samples
// occupy all n strata of the uniform scale exactly once.
func TestLHSStratification(t *testing.T) {
	rng := randx.New(3)
	n, dim := 40, 6
	pts := LHS{}.Draw(rng, n, dim)
	for j := 0; j < dim; j++ {
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			u := randx.NormCDF(pts[i][j])
			k := int(u * float64(n))
			if k == n {
				k = n - 1
			}
			if seen[k] {
				t.Fatalf("coordinate %d: stratum %d hit twice", j, k)
			}
			seen[k] = true
		}
	}
}

// Property version over random sizes and seeds.
func TestLHSStratificationProperty(t *testing.T) {
	f := func(seed uint64, nRaw, dRaw uint8) bool {
		n := int(nRaw%30) + 2
		dim := int(dRaw%8) + 1
		pts := LHS{}.Draw(randx.New(seed), n, dim)
		for j := 0; j < dim; j++ {
			us := make([]float64, n)
			for i := range us {
				us[i] = randx.NormCDF(pts[i][j])
			}
			sort.Float64s(us)
			for i, u := range us {
				lo, hi := float64(i)/float64(n), float64(i+1)/float64(n)
				if u < lo || u > hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLHSMomentsBetterThanPMC(t *testing.T) {
	// The mean of an LHS plan is (much) closer to 0 than typical PMC noise.
	rng := randx.New(11)
	n := 500
	pts := LHS{}.Draw(rng, n, 2)
	sum := 0.0
	for _, p := range pts {
		sum += p[0]
	}
	mean := sum / float64(n)
	if math.Abs(mean) > 0.02 {
		t.Errorf("LHS column mean = %v, want ~0", mean)
	}
}

func TestPMCMoments(t *testing.T) {
	rng := randx.New(5)
	n := 100000
	pts := PMC{}.Draw(rng, n, 1)
	var sum, sum2 float64
	for _, p := range pts {
		sum += p[0]
		sum2 += p[0] * p[0]
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.03 {
		t.Errorf("PMC moments mean=%v var=%v", mean, variance)
	}
}

func TestHaltonProperties(t *testing.T) {
	h := Halton{}
	if h.Name() != "Halton" {
		t.Errorf("name = %q", h.Name())
	}
	// Deterministic given the stream.
	a := h.Draw(randx.New(5), 64, 7)
	b := h.Draw(randx.New(5), 64, 7)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("Halton not deterministic")
			}
		}
	}
	// Different streams decorrelate.
	c := h.Draw(randx.New(6), 64, 7)
	same := 0
	for i := range a {
		if a[i][0] == c[i][0] {
			same++
		}
	}
	if same > 2 {
		t.Errorf("plans from different streams share %d values", same)
	}
	// Column means near zero: QMC uniformity through the quantile map.
	for j := 0; j < 7; j++ {
		s := 0.0
		for i := range a {
			s += a[i][j]
		}
		if m := s / float64(len(a)); math.Abs(m) > 0.35 {
			t.Errorf("column %d mean = %v", j, m)
		}
	}
}

func TestHaltonStratificationBeatsPMC(t *testing.T) {
	// For the first coordinate (base 2), Halton's discrepancy is far below
	// PMC's: with n=256 the CDF error should be tiny.
	n := 256
	h := Halton{}.Draw(randx.New(9), n, 1)
	below := 0
	for _, p := range h {
		if randx.NormCDF(p[0]) < 0.5 {
			below++
		}
	}
	if below < n/2-8 || below > n/2+8 {
		t.Errorf("median split = %d/%d, want ~%d", below, n, n/2)
	}
}

func TestFirstPrimes(t *testing.T) {
	got := firstPrimes(10)
	want := []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("primes[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// lhsPerCoordinatePerm is LHS.Draw as written on a fresh rand.Perm per
// coordinate; the reused permutation buffer must reproduce it bit for bit.
func lhsPerCoordinatePerm(rng *randx.Stream, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
	}
	for j := 0; j < dim; j++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			u := (float64(perm[i]) + rng.Float64()) / float64(n)
			if u <= 0 {
				u = 0.5 / float64(n)
			}
			if u >= 1 {
				u = 1 - 0.5/float64(n)
			}
			out[i][j] = randx.NormQuantile(u)
		}
	}
	return out
}

func TestLHSMatchesRandPerm(t *testing.T) {
	for _, c := range []struct {
		n, dim int
		seed   uint64
	}{{1, 1, 1}, {2, 7, 2}, {17, 5, 3}, {64, 80, 4}, {100, 123, 5}, {333, 3, 6}} {
		got := LHS{}.Draw(randx.New(c.seed), c.n, c.dim)
		want := lhsPerCoordinatePerm(randx.New(c.seed), c.n, c.dim)
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("n=%d dim=%d seed=%d: [%d][%d] = %v, want %v",
						c.n, c.dim, c.seed, i, j, got[i][j], want[i][j])
				}
			}
		}
		// The stream must also be left where rand.Perm leaves it, so the
		// caller's next draw is unchanged.
		a, b := randx.New(c.seed), randx.New(c.seed)
		LHS{}.Draw(a, c.n, c.dim)
		lhsPerCoordinatePerm(b, c.n, c.dim)
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d dim=%d seed=%d: stream state diverged", c.n, c.dim, c.seed)
		}
	}
}
