package geom

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hyperdom/internal/vec"
)

func TestMaxDist(t *testing.T) {
	tests := []struct {
		name string
		a, b Sphere
		want float64
	}{
		{
			"two balls on x axis",
			NewSphere([]float64{0, 0}, 1),
			NewSphere([]float64{10, 0}, 2),
			13,
		},
		{
			"point and ball (Fig 2b)",
			NewSphere([]float64{0, 0}, 3),
			Point([]float64{4, 3}),
			8,
		},
		{
			"identical points",
			Point([]float64{1, 1}),
			Point([]float64{1, 1}),
			0,
		},
		{
			"concentric",
			NewSphere([]float64{0, 0}, 1),
			NewSphere([]float64{0, 0}, 2),
			3,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := MaxDist(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("MaxDist = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestMinDist(t *testing.T) {
	tests := []struct {
		name string
		a, b Sphere
		want float64
	}{
		{
			"disjoint (Fig 3a)",
			NewSphere([]float64{0, 0}, 1),
			NewSphere([]float64{10, 0}, 2),
			7,
		},
		{
			"overlapping (Fig 3b)",
			NewSphere([]float64{0, 0}, 3),
			NewSphere([]float64{4, 0}, 3),
			0,
		},
		{
			"ball and point (Fig 3c)",
			NewSphere([]float64{0, 0}, 2),
			Point([]float64{4, 3}),
			3,
		},
		{
			"tangent",
			NewSphere([]float64{0, 0}, 2),
			NewSphere([]float64{5, 0}, 3),
			0,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := MinDist(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("MinDist = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestOverlap(t *testing.T) {
	a := NewSphere([]float64{0, 0}, 2)
	if !Overlap(a, NewSphere([]float64{3, 0}, 2)) {
		t.Error("overlapping spheres reported disjoint")
	}
	if !Overlap(a, NewSphere([]float64{4, 0}, 2)) {
		t.Error("tangent spheres must count as overlapping (Lemma 1)")
	}
	if Overlap(a, NewSphere([]float64{4.0001, 0}, 2)) {
		t.Error("disjoint spheres reported overlapping")
	}
	if !Overlap(a, NewSphere([]float64{0.5, 0.5}, 0.1)) {
		t.Error("contained sphere reported disjoint")
	}
}

func TestSphereContains(t *testing.T) {
	s := NewSphere([]float64{0, 0}, 2)
	if !s.Contains([]float64{1, 1}) {
		t.Error("interior point not contained")
	}
	if !s.Contains([]float64{2, 0}) {
		t.Error("boundary point not contained (closed ball)")
	}
	if s.Contains([]float64{2.001, 0}) {
		t.Error("exterior point contained")
	}
}

func TestContainsSphere(t *testing.T) {
	s := NewSphere([]float64{0, 0}, 5)
	if !s.ContainsSphere(NewSphere([]float64{2, 0}, 3)) {
		t.Error("internally tangent sphere not contained")
	}
	if s.ContainsSphere(NewSphere([]float64{2, 0}, 3.001)) {
		t.Error("protruding sphere contained")
	}
}

func TestSphereValidate(t *testing.T) {
	if err := NewSphere([]float64{1}, 0).Validate(); err != nil {
		t.Errorf("valid sphere failed validation: %v", err)
	}
	bad := []Sphere{
		{Center: nil, Radius: 1},
		{Center: []float64{math.NaN()}, Radius: 1},
		{Center: []float64{0}, Radius: -1},
		{Center: []float64{0}, Radius: math.Inf(1)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad sphere %d passed validation", i)
		}
	}
}

func TestNewSpherePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSphere(nil, 1) },
		func() { NewSphere([]float64{0}, -1) },
		func() { NewSphere([]float64{0}, math.Inf(1)) },
		func() { NewSphere([]float64{0, math.NaN()}, 1) },
		func() { NewSphere([]float64{math.Inf(-1)}, 1) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "geom: NewSphere") {
					t.Errorf("NewSphere with invalid input: recovered %q, want a geom: NewSphere panic", msg)
				}
			}()
			fn()
		}()
	}
}

func TestSphereMBR(t *testing.T) {
	s := NewSphere([]float64{1, -2, 3}, 2)
	r := s.MBR()
	if !vec.Equal(r.Lo, []float64{-1, -4, 1}) || !vec.Equal(r.Hi, []float64{3, 0, 5}) {
		t.Errorf("MBR = %v", r)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect([]float64{0, 0}, []float64{4, 2})
	if r.Dim() != 2 {
		t.Errorf("Dim = %d", r.Dim())
	}
	if !vec.Equal(r.Center(), []float64{2, 1}) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.Contains([]float64{4, 2}) {
		t.Error("boundary corner not contained")
	}
	if r.Contains([]float64{4.1, 2}) {
		t.Error("outside point contained")
	}
	if r.Contains([]float64{1}) {
		t.Error("wrong-dimension point contained")
	}
}

func TestRectIntersects(t *testing.T) {
	a := NewRect([]float64{0, 0}, []float64{2, 2})
	if !a.Intersects(NewRect([]float64{1, 1}, []float64{3, 3})) {
		t.Error("overlapping rects reported disjoint")
	}
	if !a.Intersects(NewRect([]float64{2, 0}, []float64{3, 1})) {
		t.Error("edge-touching rects reported disjoint")
	}
	if a.Intersects(NewRect([]float64{2.1, 0}, []float64{3, 1})) {
		t.Error("disjoint rects reported intersecting")
	}
}

func TestRectMinMaxDist(t *testing.T) {
	a := NewRect([]float64{0, 0}, []float64{1, 1})
	b := NewRect([]float64{4, 4}, []float64{5, 5})
	want := math.Sqrt(18) // corner (1,1) to corner (4,4)
	if got := MinDistRect(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("MinDistRect = %v, want %v", got, want)
	}
	wantMax := math.Sqrt(50) // corner (0,0) to corner (5,5)
	if got := MaxDistRect(a, b); math.Abs(got-wantMax) > 1e-12 {
		t.Errorf("MaxDistRect = %v, want %v", got, wantMax)
	}
	if got := MinDistRect(a, NewRect([]float64{0.5, 0.5}, []float64{2, 2})); got != 0 {
		t.Errorf("MinDistRect of intersecting rects = %v, want 0", got)
	}
}

func TestRectCorners(t *testing.T) {
	r := NewRect([]float64{0, 0}, []float64{1, 2})
	corners := r.Corners()
	if len(corners) != 4 {
		t.Fatalf("got %d corners, want 4", len(corners))
	}
	want := map[[2]float64]bool{
		{0, 0}: true, {1, 0}: true, {0, 2}: true, {1, 2}: true,
	}
	for _, c := range corners {
		if !want[[2]float64{c[0], c[1]}] {
			t.Errorf("unexpected corner %v", c)
		}
	}
}

func TestNewRectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRect with lo > hi did not panic")
		}
	}()
	NewRect([]float64{1}, []float64{0})
}

// Property: MinDist and MaxDist bracket the distance between any contained
// points, verified by random sampling.
func TestMinMaxDistBracketProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(8)
		a := randSphere(r, d)
		b := randSphere(r, d)
		lo, hi := MinDist(a, b), MaxDist(a, b)
		for i := 0; i < 20; i++ {
			p := randPointIn(r, a)
			q := randPointIn(r, b)
			dist := vec.Dist(p, q)
			if dist < lo-1e-9 || dist > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: MinDist/MaxDist between rectangles bracket sampled distances.
func TestRectMinMaxDistBracketProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(6)
		a := randRect(r, d)
		b := randRect(r, d)
		lo, hi := MinDistRect(a, b), MaxDistRect(a, b)
		for i := 0; i < 20; i++ {
			p := randPointInRect(r, a)
			q := randPointInRect(r, b)
			dist := vec.Dist(p, q)
			if dist < lo-1e-9 || dist > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a sphere's MBR contains every sampled point of the sphere.
func TestSphereMBRContainsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randSphere(r, 1+r.Intn(8))
		mbr := s.MBR()
		for i := 0; i < 20; i++ {
			if !mbr.Contains(randPointIn(r, s)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func randSphere(r *rand.Rand, d int) Sphere {
	c := make([]float64, d)
	for i := range c {
		c[i] = r.NormFloat64() * 20
	}
	return NewSphere(c, r.Float64()*5)
}

func randRect(r *rand.Rand, d int) Rect {
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := range lo {
		a, b := r.NormFloat64()*20, r.NormFloat64()*20
		if a > b {
			a, b = b, a
		}
		lo[i], hi[i] = a, b
	}
	return NewRect(lo, hi)
}

// randPointIn returns a uniformly random point inside sphere s (rejection
// sampling in the bounding box, falling back to the center).
func randPointIn(r *rand.Rand, s Sphere) []float64 {
	d := s.Dim()
	for tries := 0; tries < 200; tries++ {
		p := make([]float64, d)
		for i := range p {
			p[i] = s.Center[i] + (2*r.Float64()-1)*s.Radius
		}
		if s.Contains(p) {
			return p
		}
	}
	return vec.Clone(s.Center)
}

func randPointInRect(r *rand.Rand, rect Rect) []float64 {
	p := make([]float64, rect.Dim())
	for i := range p {
		p[i] = rect.Lo[i] + r.Float64()*(rect.Hi[i]-rect.Lo[i])
	}
	return p
}
