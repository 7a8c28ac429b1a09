//go:build !amd64 || race

package buildtags

func kernel() string { return "go" }
