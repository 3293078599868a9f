package variation

import (
	"math"
	"reflect"
	"testing"

	"github.com/eda-go/moheco/internal/linalg"
	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/pdk"
	"github.com/eda-go/moheco/internal/randx"
)

// perturbPerDevice is the mapping before the inter-die block was hoisted
// out of the per-device step: every device re-applies every inter-die
// variable (through a fresh L·ξ when a correlation is installed) and then
// its own intra-die draws. The hoisted path must reproduce it bit for bit.
func perturbPerDevice(s *Space, xi []float64, dev int, areaUm2 float64) mos.Perturb {
	p := mos.Nominal()
	if xi == nil {
		return p
	}
	pmos := s.Devices[dev].PMOS
	inter := xi[:len(s.Tech.Inter)]
	if s.chol != nil {
		inter = linalg.LowerMulVec(s.chol, inter)
	}
	for i, v := range s.Tech.Inter {
		applyInter(&p, v, inter[i], pmos)
	}
	area := areaUm2
	if area < 0.01 {
		area = 0.01
	}
	inv := 1 / math.Sqrt(area)
	mm := s.Tech.Mismatch
	base := len(s.Tech.Inter) + IntraPerDevice*dev
	p.TOXScale *= 1 + mm.ATOX*inv*xi[base+0]
	p.DVth += mm.AVT * inv * xi[base+1]
	p.DLD += mm.ALD * inv * 1e-6 * xi[base+2]
	p.DWD += mm.AWD * inv * 1e-6 * xi[base+3]
	return p
}

// sameBits reports whether every field of a and b has identical IEEE-754
// bits (== would equate +0 and -0).
func sameBits(a, b mos.Perturb) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if math.Float64bits(va.Field(i).Float()) != math.Float64bits(vb.Field(i).Float()) {
			return false
		}
	}
	return true
}

// randomCorrelation returns a dense SPD correlation matrix: the normalized
// Gram matrix of random vectors, exactly symmetric with a unit diagonal.
func randomCorrelation(rng *randx.Stream, n int) *linalg.Matrix {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = rng.NormFloat64()
		}
	}
	dot := func(u, v []float64) float64 {
		s := 0.0
		for k := range u {
			s += u[k] * v[k]
		}
		return s
	}
	c := linalg.Identity(n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			r := dot(a[i], a[j]) / math.Sqrt(dot(a[i], a[i])*dot(a[j], a[j]))
			c.Set(i, j, r)
			c.Set(j, i, r)
		}
	}
	return c
}

// TestSampleMatchesPerDeviceMapping pins the hoisted mapping: for random ξ,
// both decks (20 and 47 inter-die variables), both polarities and with and
// without an inter-die correlation, Perturb and Sample.Device equal the
// per-device mapping bitwise.
func TestSampleMatchesPerDeviceMapping(t *testing.T) {
	rng := randx.New(12)
	for _, tech := range []*pdk.Tech{pdk.C035(), pdk.N90()} {
		slots := make([]Slot, 9)
		for i := range slots {
			slots[i] = Slot{Name: "M", PMOS: i%3 == 1}
		}
		s := New(tech, slots)
		for _, correlated := range []bool{false, true} {
			corr := (*linalg.Matrix)(nil)
			if correlated {
				corr = randomCorrelation(rng, len(tech.Inter))
			}
			if err := s.SetInterCorrelation(corr); err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 50; trial++ {
				var xi []float64
				if trial > 0 {
					xi = make([]float64, s.Dim())
					for i := range xi {
						xi[i] = 3 * rng.NormFloat64()
					}
				}
				smp := s.Sample(xi)
				for dev := range slots {
					area := 0.005 + 50*rng.Float64()
					want := perturbPerDevice(s, xi, dev, area)
					if got := smp.Device(dev, area); !sameBits(got, want) {
						t.Fatalf("%s corr=%v trial %d dev %d: Sample.Device %+v, per-device %+v",
							tech.Name, correlated, trial, dev, got, want)
					}
					if got := s.Perturb(xi, dev, area); !sameBits(got, want) {
						t.Fatalf("%s corr=%v trial %d dev %d: Perturb %+v, per-device %+v",
							tech.Name, correlated, trial, dev, got, want)
					}
				}
			}
		}
	}
}
