//go:build !arm64

package buildtags

const lanes = 1
