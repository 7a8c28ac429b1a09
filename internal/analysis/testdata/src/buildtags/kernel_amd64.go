//go:build !race

package buildtags

func kernel() string { return "sse" }
