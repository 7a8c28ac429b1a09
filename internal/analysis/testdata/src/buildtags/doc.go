// Package buildtags is a diffkv-vet fixture for build constraints: each
// of its two pairs of files declares one name twice, under complementary
// constraints, so the package typechecks only if the loader keeps the
// files go build compiles. The pair kernel_amd64.go/kernel_other.go is
// split as an SSE body and its portable twin are (a name suffix with a
// //go:build line, against the complementary line); the pair
// lanes_arm64.go/lanes_other.go by a name suffix alone.
package buildtags

// Kernel names the body this build compiles and its lane count.
func Kernel() (string, int) { return kernel(), lanes }
