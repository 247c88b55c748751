package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"orthogonal", []float64{1, 0}, []float64{0, 1}, 0},
		{"parallel", []float64{1, 2, 3}, []float64{2, 4, 6}, 28},
		{"negative", []float64{-1, 1}, []float64{1, 1}, 0},
		{"single", []float64{3}, []float64{4}, 12},
		{"zero vectors", []float64{0, 0, 0}, []float64{0, 0, 0}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Dot(tc.a, tc.b); got != tc.want {
				t.Errorf("Dot(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNormAndDist(t *testing.T) {
	if got := Norm([]float64{3, 4}); got != 5 {
		t.Errorf("Norm(3,4) = %v, want 5", got)
	}
	if got := Dist([]float64{1, 1}, []float64{4, 5}); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := Dist2([]float64{0, 0, 0}, []float64{1, 2, 2}); got != 9 {
		t.Errorf("Dist2 = %v, want 9", got)
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(16)
		a, b := randVec(r, d), randVec(r, d)
		return math.Abs(Dist(a, b)-Dist(b, a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(16)
		a, b, c := randVec(r, d), randVec(r, d), randVec(r, d)
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubAddScale(t *testing.T) {
	a := []float64{5, 7}
	b := []float64{2, 3}
	if got := Sub(a, b); !Equal(got, []float64{3, 4}) {
		t.Errorf("Sub = %v", got)
	}
	if got := Scale(2, a); !Equal(got, []float64{10, 14}) {
		t.Errorf("Scale = %v", got)
	}
	dst := make([]float64, 2)
	Axpy(dst, 2, b, a)
	if !Equal(dst, []float64{9, 13}) {
		t.Errorf("Axpy = %v", dst)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := []float64{1, 2}
	c := Clone(a)
	c[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares backing array")
	}
}

func TestEqual(t *testing.T) {
	if Equal([]float64{1}, []float64{1, 2}) {
		t.Error("Equal with different lengths")
	}
	if !Equal([]float64{1, 2}, []float64{1, 2}) {
		t.Error("Equal on identical slices is false")
	}
}

func TestUnit(t *testing.T) {
	u, n := Unit([]float64{3, 4})
	if n != 5 {
		t.Errorf("Unit norm = %v, want 5", n)
	}
	if math.Abs(u[0]-0.6) > 1e-15 || math.Abs(u[1]-0.8) > 1e-15 {
		t.Errorf("Unit = %v", u)
	}
	z, n := Unit([]float64{0, 0})
	if n != 0 || !Equal(z, []float64{0, 0}) {
		t.Errorf("Unit(0) = %v, %v", z, n)
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite([]float64{1, -2, 0}) {
		t.Error("finite vector reported non-finite")
	}
	if IsFinite([]float64{1, math.NaN()}) {
		t.Error("NaN vector reported finite")
	}
	if IsFinite([]float64{math.Inf(1)}) {
		t.Error("Inf vector reported finite")
	}
}

func TestUnitNormProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randVec(r, 1+r.Intn(10))
		u, n := Unit(v)
		if n == 0 {
			return true
		}
		return math.Abs(Norm(u)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randVec(r *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = r.NormFloat64() * 10
	}
	return v
}
