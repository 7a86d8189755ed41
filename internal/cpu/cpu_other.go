//go:build !amd64 || purego

package cpu

func detect() Level { return Scalar }
