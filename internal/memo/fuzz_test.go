package memo

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzCacheLogReplay feeds arbitrary bytes to the disk tier as a cache log.
// The recovery contract under fuzz: opening never panics, every record the
// replay accepts re-verifies on read (no checksum-failing record is ever
// served), and the recovered log remains appendable — a fresh append
// survives a second replay. The committed corpus doubles as the seed set.
func FuzzCacheLogReplay(f *testing.F) {
	for _, c := range corpusCases() {
		f.Add(c.data)
	}
	// A log whose last record's length field points past the written bytes.
	short := append([]byte(logMagic), corpusRecord(Schedule, "k", "v")...)
	f.Add(short[:len(short)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDiskTier(dir)
		if err != nil {
			return // rejecting a foreign file is fine; panicking is not
		}
		for _, sp := range Spaces {
			d.Range(sp, func(key Key, val []byte) bool {
				got, ok := d.Get(sp, key)
				if !ok {
					t.Fatalf("replayed record (space %v, key %v) fails re-verification", sp, key)
				}
				if string(got) != string(val) {
					t.Fatalf("Get(%v, %v) disagrees with Range", sp, key)
				}
				return true
			})
		}
		if !d.Put(Schedule, tkey("fuzz-probe"), []byte("probe-val")) {
			t.Fatal("Put refused on a recovered log")
		}
		if err := d.Close(); err != nil {
			t.Fatalf("Close after recovery: %v", err)
		}
		d2, err := OpenDiskTier(dir)
		if err != nil {
			t.Fatalf("reopen after recovery+append: %v", err)
		}
		defer d2.Close()
		if v, ok := d2.Get(Schedule, tkey("fuzz-probe")); !ok || string(v) != "probe-val" {
			t.Fatal("record appended after recovery was lost on replay")
		}
	})
}
