//go:build !amd64

package vec

// refineF32 is the pass 2 SelectLeafSphereF32 runs: the Go loop on every
// architecture but amd64 (refine_amd64.go).
var refineF32 = refineF32Go
