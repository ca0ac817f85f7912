// Package store persists multihierarchical documents in a binary image
// format — the storage side of the paper's "framework for management of
// concurrent XML markup" ([5]). The image contains the base text once
// plus the markup structure of every hierarchy; text content is never
// duplicated, since every text node is a slice of S.
//
// An image frames an internal/slab columnar layout: the document is
// laid out so that opening a snapshot is O(validation) — a checksummed
// linear scan — instead of O(rebuild), and the opened document serves
// its base text, boundary array and name-index runs directly off the
// image (memory-mapped via OpenSnapshotFile where the platform allows),
// materializing dom.Node storage lazily per hierarchy.
package store

import (
	"errors"
	"fmt"
	"io"

	"mhxquery/internal/core"
	"mhxquery/internal/slab"
)

// magic and version identify the image format. The version is one
// byte followed by three zero bytes, so the slab starts 8-byte aligned
// at offset 8. Versions 1 and 2 (varint tree encodings) are no longer
// read; an image carrying them is reported as corrupt.
const (
	magic   = "MHXG"
	version = 3
)

// ErrCorrupt tags every way an image can be damaged — bad magic,
// checksum mismatch, truncation, or structurally invalid content —
// so callers can distinguish corruption from I/O errors (errors.Is).
var ErrCorrupt = errors.New("MHXQ0201: corrupt document image")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("store: "+format+": %w", append(args, ErrCorrupt)...)
}

// Encode writes a binary image of the document to w.
func Encode(w io.Writer, d *core.Document) error { return EncodeSnapshot(w, d, 0) }

// EncodeSnapshot writes an image recording that the snapshot covers
// every WAL record with sequence number ≤ snapSeq.
func EncodeSnapshot(w io.Writer, d *core.Document, snapSeq uint64) error {
	blob, err := slab.Encode(d, snapSeq)
	if err != nil {
		return err
	}
	var hdr [8]byte
	copy(hdr[:], magic)
	hdr[4] = version // bytes 5..7 stay zero so the slab starts aligned
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(blob)
	return err
}

// Decode reads a binary image and opens the document. Corruption — bad
// magic, checksum mismatch, truncation, invalid structure, an
// unsupported version — is reported as an error wrapping ErrCorrupt.
func Decode(r io.Reader) (*core.Document, error) {
	doc, _, err := DecodeSnapshot(r)
	return doc, err
}

// DecodeSnapshot is Decode plus the WAL sequence number the snapshot
// covers.
func DecodeSnapshot(r io.Reader) (*core.Document, uint64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	return OpenSnapshotBytes(data)
}

// OpenSnapshotBytes decodes a snapshot image held in memory. The
// returned document serves base text, bounds and index runs directly
// off data — which therefore must stay immutable for the document's
// lifetime — and materializes node storage lazily.
func OpenSnapshotBytes(data []byte) (*core.Document, uint64, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, 0, corrupt("bad magic")
	}
	if len(data) < 8 {
		return nil, 0, corrupt("truncated header")
	}
	// The version is one literal byte (plus three zero pads), not a
	// uvarint: the check is exact so no alternative encoding of it can
	// smuggle in a differently-framed image.
	if v := data[4]; v != version {
		if v > version {
			return nil, 0, fmt.Errorf("store: image version %d is newer than the supported version %d; rebuild with a newer mhxquery or re-encode the document", v, version)
		}
		return nil, 0, corrupt("unsupported version %d", v)
	}
	if data[5] != 0 || data[6] != 0 || data[7] != 0 {
		return nil, 0, corrupt("nonzero version padding")
	}
	s, err := slab.Open(data[8:])
	if err != nil {
		return nil, 0, corrupt("%v", err)
	}
	return s.Document(), s.SnapSeq(), nil
}

// OpenSnapshotFile opens a snapshot from disk, memory-mapping it where
// the platform allows so the page cache is shared across processes and
// nothing is copied up front. The mapping backs the returned document
// and is retained for the life of the process; it is released only
// when the image fails to open.
func OpenSnapshotFile(path string) (*core.Document, uint64, error) {
	data, mapped, err := slab.MapFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	doc, seq, err := OpenSnapshotBytes(data)
	if err != nil {
		_ = slab.Unmap(data, mapped) // nothing aliases the bytes of a failed open
	}
	return doc, seq, err
}
