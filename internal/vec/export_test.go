package vec

// RefineF32Func is the signature of a pass-2 kernel of SelectLeafSphereF32.
type RefineF32Func = func(sel []int32, sr, centers []float32, q []float64, dkqr float64) int

// ChildKeysFunc is the signature of a kernel of ChildKeysBlock.
type ChildKeysFunc = func(dst, centers, radii []float64, box []float32, q []float64, qr, dk float64) int

// RefineF32Go and RefineF32 are the Go pass 2 and the one refineF32
// dispatches to, for the tests of package vec_test; ChildKeysGo and
// ChildKeys are the same pair for ChildKeysBlock.
var (
	RefineF32Go, RefineF32 RefineF32Func = refineF32Go, refineF32
	ChildKeysGo, ChildKeys ChildKeysFunc = childKeysGo, childKeys
)

// SetRefineF32 makes SelectLeafSphereF32 run f as its pass 2 and returns
// the function that puts the dispatched kernel back.
func SetRefineF32(f RefineF32Func) (restore func()) {
	prev := refineF32
	refineF32 = f
	return func() { refineF32 = prev }
}

// SetChildKeys makes ChildKeysBlock run f and returns the function that
// puts the dispatched kernel back.
func SetChildKeys(f ChildKeysFunc) (restore func()) {
	prev := childKeys
	childKeys = f
	return func() { childKeys = prev }
}
