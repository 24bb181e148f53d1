package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// sumLen is how much of the SHA-256 a key keeps: 192 bits. Request keys
// come from untrusted clients, so the digest must be collision resistant —
// a crafted spec must not be able to land on another tenant's entry.
const sumLen = 24

// keyLen is the encoded size of a Key: the digest, then the word
// (little-endian). Disk records and the handoff stream carry this form.
const keyLen = sumLen + 8

// Key addresses one entry in every tier — the keyspace maps, the disk
// tier's index and log records, and the handoff stream — at a fixed size,
// whatever the length of the canonical bytes it stands for. It holds the
// first 192 bits of the SHA-256 of those bytes plus one 64-bit word: a
// Requests key's word is its ring fingerprint, so a key can be placed on
// the ring without the bytes it was made from; a Schedule key's word is
// the per-iteration budget, so every point of one loop's cost curve shares
// one digest. Keys are comparable and allocation-free to copy.
type Key struct {
	sum  [sumLen]byte
	word uint64
}

// NewKey returns the key of the canonical bytes b with the given word.
// Equal bytes and words give equal keys. b is not retained.
func NewKey(b []byte, word uint64) Key {
	full := sha256.Sum256(b)
	k := Key{word: word}
	copy(k.sum[:], full[:sumLen])
	return k
}

// WithWord returns k with its word replaced: the same digest, another
// budget point.
func (k Key) WithWord(word uint64) Key {
	k.word = word
	return k
}

// Word returns the key's 64-bit word (a Requests key's ring fingerprint).
func (k Key) Word() uint64 { return k.word }

// appendKey appends the keyLen-byte encoding of k.
func appendKey(dst []byte, k Key) []byte {
	dst = append(dst, k.sum[:]...)
	return binary.LittleEndian.AppendUint64(dst, k.word)
}

// keyFrom decodes the keyLen-byte encoding at the start of b.
func keyFrom(b []byte) Key {
	var k Key
	copy(k.sum[:], b[:sumLen])
	k.word = binary.LittleEndian.Uint64(b[sumLen:keyLen])
	return k
}

// MarshalText encodes the key as keyLen bytes of lowercase hex (the
// handoff wire form).
func (k Key) MarshalText() ([]byte, error) {
	var raw [keyLen]byte
	return hex.AppendEncode(nil, appendKey(raw[:0], k)), nil
}

// UnmarshalText decodes MarshalText's form; anything else is an error.
func (k *Key) UnmarshalText(text []byte) error {
	var raw [keyLen]byte
	if hex.DecodedLen(len(text)) != keyLen {
		return fmt.Errorf("memo: key is %d hex digits, want %d", len(text), 2*keyLen)
	}
	if _, err := hex.Decode(raw[:], text); err != nil {
		return fmt.Errorf("memo: key: %v", err)
	}
	*k = keyFrom(raw[:])
	return nil
}
