package memo

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// tkey is the test form of a key: the digest of s, routed by its ring
// fingerprint, as the serving path builds a demo request's key.
func tkey(s string) Key { return NewKey([]byte(s), Fingerprint64(s)) }

// TestKeyAddressesByCanonicalBytes: keys built from equal bytes and words
// address one entry; different bytes or a different word address another;
// NewKey does not retain the buffer it hashed.
func TestKeyAddressesByCanonicalBytes(t *testing.T) {
	c := New(Schedule)
	calls := 0
	compute := func() (any, bool) { calls++; return calls, true }
	buf := []byte("loop-fingerprint")
	k := NewKey(buf, 7)
	copy(buf, "LOOP")
	if v := c.Do(Schedule, NewKey([]byte("loop-fingerprint"), 7), compute); v != 1 {
		t.Fatalf("Do = %v, want 1", v)
	}
	if v := c.Do(Schedule, k, compute); v != 1 {
		t.Fatalf("Do on a key from equal bytes = %v, want cached 1 (was the buffer retained?)", v)
	}
	if v := c.Do(Schedule, k.WithWord(8), compute); v != 2 {
		t.Fatalf("Do on another word = %v, want fresh 2", v)
	}
	if v := c.Do(Schedule, NewKey([]byte("loop-fingerprinT"), 7), compute); v != 3 {
		t.Fatalf("Do on other bytes = %v, want fresh 3", v)
	}
	if got := k.WithWord(8).WithWord(7); got != k {
		t.Fatal("WithWord does not keep the digest")
	}
	if k.Word() != 7 {
		t.Fatalf("Word = %d, want 7", k.Word())
	}
}

// TestKeyTextRoundTrip pins the handoff wire form: 64 hex digits that
// decode to the same key; any other text is an error.
func TestKeyTextRoundTrip(t *testing.T) {
	k := tkey(strings.Repeat("spec|", 400))
	text, err := k.MarshalText()
	if err != nil || len(text) != 2*keyLen {
		t.Fatalf("MarshalText = %q, %v; want %d hex digits", text, err, 2*keyLen)
	}
	var back Key
	if err := back.UnmarshalText(text); err != nil || back != k {
		t.Fatalf("UnmarshalText(%q) = %v, %v; want the original key", text, back, err)
	}
	for _, bad := range []string{"", "00", string(text[:len(text)-1]), string(text) + "00", strings.Repeat("zz", keyLen)} {
		if err := back.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted", bad)
		}
	}
}

// TestDiskIndexHeapIndependentOfKeyLength: the heap a replayed index keeps
// per record does not grow with the canonical bytes behind its keys. Two
// logs of n records, one keyed by 2 KB canonical bytes and one by 20 B,
// retain the same index, and at most maxPerRecord bytes a record.
func TestDiskIndexHeapIndependentOfKeyLength(t *testing.T) {
	const (
		n            = 2000
		maxPerRecord = 256
	)
	retained := func(keyLen int) float64 {
		log := []byte(logMagic)
		for i := 0; i < n; i++ {
			canon := fmt.Sprintf("%0*d", keyLen, i)
			log = append(log, corpusRecordKey(Requests, tkey(canon), "v")...)
		}
		dir := stageCorpus(t, log)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		d, err := OpenDiskTier(dir)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		defer d.Close()
		if got := d.Len(Requests); got != n {
			t.Fatalf("replayed %d records, want %d", got, n)
		}
		return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	}
	long, short := retained(2048), retained(20)
	t.Logf("index heap per record: %.0f B (2 KB keys), %.0f B (20 B keys)", long, short)
	if long > maxPerRecord || short > maxPerRecord {
		t.Fatalf("index retains %.0f / %.0f B per record, want <= %d", long, short, maxPerRecord)
	}
	if diff := long - short; diff > 32 || diff < -32 {
		t.Fatalf("per-record index heap differs by %.0f B between 2 KB and 20 B keys", diff)
	}
}

// TestDiskTierLogVersions: a log in the string-keyed dtsecl1 format opens
// as an empty dtsecl2 log with all its bytes counted as truncated; any
// other leading bytes are not a cache log.
func TestDiskTierLogVersions(t *testing.T) {
	v1 := corpusCases()["v1.log"].data
	dir := stageCorpus(t, v1)
	d, err := OpenDiskTier(dir)
	if err != nil {
		t.Fatalf("OpenDiskTier on a dtsecl1 log: %v", err)
	}
	if st := d.Stats(); st.Records != 0 || st.Replayed != 0 || st.Truncated != int64(len(v1)) {
		t.Fatalf("dtsecl1 open stats %+v, want empty with %d bytes truncated", st, len(v1))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, logName)); !bytes.Equal(got, []byte(logMagic)) {
		t.Fatalf("reset log holds %q, want only the %q magic", got, logMagic)
	}
	for _, foreign := range []string{"dtsecl3\n", "dtsecl", "NOTACACHELOG\n", "DTSECL2\n"} {
		d, err := OpenDiskTier(stageCorpus(t, []byte(foreign)))
		if err == nil {
			d.Close()
			t.Errorf("OpenDiskTier accepted a log starting %q", foreign)
		} else if !strings.Contains(err.Error(), "not a cache log") {
			t.Errorf("log starting %q: error %v, want \"not a cache log\"", foreign, err)
		}
	}
}
