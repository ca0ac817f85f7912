//go:build !linux && !darwin

package slab

import "os"

// MapFile reads the file into memory: this platform has no mmap, so
// mapped is always false.
func MapFile(path string) (data []byte, mapped bool, err error) {
	data, err = os.ReadFile(path)
	return data, false, err
}

// Unmap is a no-op: MapFile never maps here.
func Unmap(data []byte, mapped bool) error { return nil }
