package wal

import (
	"errors"
	"testing"
)

// FuzzWALScan feeds hostile log images to Scan. It must never panic; a
// failure must be mid-log corruption (wrapping ErrCorrupt); the torn
// tail it tolerates must lie within the image; and rescanning the image
// without that tail must return the same records with nothing torn, so
// truncating a torn tail (what recovery does) loses no record. CI runs
// this as a non-gating smoke: go test -fuzz=FuzzWALScan -fuzztime=30s.
func FuzzWALScan(f *testing.F) {
	full := buildLog(
		Record{Seq: 1, Kind: Update, Name: "a", Base: 3, Src: `rename node (//w)[1] as "w"`},
		Record{Seq: 2, Kind: Tombstone, Name: "b"},
		Record{Seq: 5, Kind: Update, Name: "a", Base: 4, Src: "delete node //dmg"},
	)
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(full[:3])
	f.Add([]byte{})
	flipped := append([]byte(nil), full...)
	flipped[len(logHeader)+9] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, torn, err := Scan(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if torn < 0 || torn > len(data) {
			t.Fatalf("torn = %d, image is %d bytes", torn, len(data))
		}
		again, torn2, err := Scan(data[:len(data)-torn])
		if err != nil || torn2 != 0 {
			t.Fatalf("rescan without the %d torn bytes: torn=%d err=%v", torn, torn2, err)
		}
		if len(again) != len(recs) {
			t.Fatalf("rescan found %d records, first scan %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("record %d differs on rescan: %+v vs %+v", i, again[i], recs[i])
			}
		}
	})
}
