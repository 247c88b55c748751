//go:build !amd64

package vec

// refineF32 is the pass 2 SelectLeafSphereF32 runs, and childKeys the
// kernel of ChildKeysBlock: the Go loops on every architecture but amd64
// (refine_amd64.go).
var (
	refineF32 = refineF32Go
	childKeys = childKeysGo
)
