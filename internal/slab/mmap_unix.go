//go:build linux || darwin

package slab

import (
	"os"
	"syscall"
)

// MapFile returns the file's bytes as a read-only memory mapping; the
// bool reports whether they are one. Any mapping failure — empty file,
// size overflow, mmap refusal — degrades to a plain read: the caller
// gets the same bytes either way, just without the page-cache sharing.
// Mapped bytes must be released with Unmap — but only once nothing
// aliases them; a mapping serving an open document is simply kept for
// the life of the process.
func MapFile(path string) ([]byte, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	size := st.Size()
	if size <= 0 || int64(int(size)) != size {
		data, err := os.ReadFile(path)
		return data, false, err
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		data, err := os.ReadFile(path)
		return data, false, err
	}
	return data, true, nil
}

// Unmap releases bytes returned by MapFile. It is a no-op for
// heap-backed reads.
func Unmap(data []byte, mapped bool) error {
	if !mapped || data == nil {
		return nil
	}
	return syscall.Munmap(data)
}
