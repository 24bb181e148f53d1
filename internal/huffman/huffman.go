// Package huffman implements adaptive Huffman coding (the FGK algorithm:
// Faller–Gallager–Knuth). The BTPC demonstrator application uses six
// independent adaptive coders, one per neighbourhood-pattern class, exactly
// as in Robinson's original coder.
//
// An adaptive coder maintains a Huffman tree that satisfies Gallager's
// sibling property and updates it after every symbol. Encoder and decoder
// apply the identical update procedure, so they stay synchronized without
// transmitting the code table.
package huffman

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
)

// ErrCorrupt is returned by Decode when the bit stream does not resolve to
// a leaf (truncated or damaged input).
var ErrCorrupt = errors.New("huffman: corrupt or truncated stream")

const (
	symInternal = -1 // marker for internal nodes
	symNYT      = -2 // marker for the not-yet-transmitted node
)

type node struct {
	parent int // index into Coder.nodes; -1 for the root
	left   int // -1 for leaves
	right  int
	weight uint64
	symbol int // >= 0: leaf for that symbol; symInternal; symNYT
}

// Coder is an adaptive Huffman coder over the alphabet {0, …, n-1}.
//
// The node slice is kept ordered so that index 0 is the root and weights are
// non-increasing with index (the mirror image of the classic FGK node
// numbering, where the root carries the highest number). The block leader of
// a node is therefore the lowest index holding the same weight.
type Coder struct {
	n      int
	escBit uint // bit width used for raw symbols after an NYT escape
	nodes  []node
	leaf   []int // symbol -> node index, -1 until first seen
	nyt    int   // index of the NYT node
	meter  Meter // optional memory-access meter; nil disables metering
}

// Meter receives the coder's memory-access pattern in terms of its two
// backing arrays: the tree-structure array (parent/child links and symbols)
// and the weight array. The BTPC application implements this with
// trace.Handle pairs so that the Huffman coders' internal arrays show up as
// basic groups in the profiled specification, exactly like the hand-written
// instrumentation the paper describes.
type Meter interface {
	TreeRead(n int)
	TreeWrite(n int)
	WeightRead(n int)
	WeightWrite(n int)
}

// Instrument attaches a Meter (nil detaches). Metering approximates each
// logical tree/weight array touch with one counted access.
func (c *Coder) Instrument(m Meter) { c.meter = m }

// New returns a Coder for the alphabet {0, …, n-1}, n >= 1.
func New(n int) *Coder {
	if n < 1 {
		panic(fmt.Sprintf("huffman: alphabet size %d out of range", n))
	}
	c := &Coder{n: n, escBit: bitsFor(n)}
	c.Reset()
	return c
}

// bitsFor returns the number of bits needed to represent values in [0, n).
func bitsFor(n int) uint {
	b := uint(0)
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// N returns the alphabet size.
func (c *Coder) N() int { return c.n }

// Reset restores the coder to its initial state (only the NYT node).
func (c *Coder) Reset() {
	c.nodes = c.nodes[:0]
	c.nodes = append(c.nodes, node{parent: -1, left: -1, right: -1, symbol: symNYT})
	c.nyt = 0
	if c.leaf == nil {
		c.leaf = make([]int, c.n)
	}
	for i := range c.leaf {
		c.leaf[i] = -1
	}
}

// Encode appends the code for sym to w and updates the model.
func (c *Coder) Encode(sym int, w *bitio.Writer) {
	if sym < 0 || sym >= c.n {
		panic(fmt.Sprintf("huffman: symbol %d outside alphabet [0,%d)", sym, c.n))
	}
	if idx := c.leaf[sym]; idx >= 0 {
		c.emitPath(idx, w)
		c.update(idx)
		return
	}
	// First occurrence: emit the NYT path followed by the raw symbol.
	c.emitPath(c.nyt, w)
	w.WriteBits(uint64(sym), c.escBit)
	c.update(c.spawn(sym))
}

// Decode reads one symbol from r and updates the model.
func (c *Coder) Decode(r *bitio.Reader) (int, error) {
	idx := 0 // root
	steps := 0
	for c.nodes[idx].symbol == symInternal {
		b, err := r.ReadBit()
		if err != nil {
			return 0, ErrCorrupt
		}
		if b == 0 {
			idx = c.nodes[idx].left
		} else {
			idx = c.nodes[idx].right
		}
		steps++
	}
	if c.meter != nil {
		c.meter.TreeRead(steps + 1)
	}
	if c.nodes[idx].symbol == symNYT {
		raw, err := r.ReadBits(c.escBit)
		if err != nil {
			return 0, ErrCorrupt
		}
		sym := int(raw)
		if sym >= c.n {
			return 0, ErrCorrupt
		}
		if c.leaf[sym] >= 0 {
			return 0, ErrCorrupt // escape for an already-known symbol
		}
		c.update(c.spawn(sym))
		return sym, nil
	}
	sym := c.nodes[idx].symbol
	c.update(idx)
	return sym, nil
}

// emitPath writes the root-to-node path of idx (0 = left, 1 = right).
func (c *Coder) emitPath(idx int, w *bitio.Writer) {
	// Collect bits leaf-to-root, then emit reversed.
	var bits [64]int
	n := 0
	for p := c.nodes[idx].parent; p != -1; idx, p = p, c.nodes[p].parent {
		if c.nodes[p].right == idx {
			bits[n] = 1
		}
		n++
		if n == len(bits) {
			// Tree depth is bounded by the node count; an alphabet this
			// large is outside the coder's intended use.
			panic("huffman: code length exceeds 64 bits")
		}
	}
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(bits[i])
	}
	if c.meter != nil {
		c.meter.TreeRead(n + 1)
	}
}

// spawn splits the NYT node into (leaf for sym, new NYT) and returns the
// index of the new leaf. The leaf is appended before the new NYT so that the
// weight ordering (leaf will be incremented first) is preserved.
func (c *Coder) spawn(sym int) int {
	old := c.nyt
	leafIdx := len(c.nodes)
	nytIdx := leafIdx + 1
	c.nodes = append(c.nodes,
		node{parent: old, left: -1, right: -1, symbol: sym},
		node{parent: old, left: -1, right: -1, symbol: symNYT},
	)
	c.nodes[old].symbol = symInternal
	c.nodes[old].left = leafIdx // leaf gets the 0 branch
	c.nodes[old].right = nytIdx
	c.nyt = nytIdx
	c.leaf[sym] = leafIdx
	if c.meter != nil {
		c.meter.TreeWrite(3)
	}
	return leafIdx
}

// blockLeader returns the lowest index whose weight equals idx's weight.
// The ordering invariant makes equal-weight nodes contiguous.
func (c *Coder) blockLeader(idx int) int {
	w := c.nodes[idx].weight
	start := idx
	for idx > 0 && c.nodes[idx-1].weight == w {
		idx--
	}
	if c.meter != nil {
		c.meter.WeightRead(start - idx + 2)
	}
	return idx
}

// update performs the FGK increment walk from idx to the root, swapping each
// node with its block leader (unless the leader is its parent) before
// incrementing its weight.
func (c *Coder) update(idx int) {
	for idx != -1 {
		if leader := c.blockLeader(idx); leader != idx && leader != c.nodes[idx].parent {
			c.swapNodes(idx, leader)
			idx = leader
		}
		c.nodes[idx].weight++
		if c.meter != nil {
			c.meter.WeightWrite(1)
			c.meter.TreeRead(1) // parent-link read for the walk
		}
		idx = c.nodes[idx].parent
	}
}

// swapNodes exchanges the subtrees rooted at slice positions i and j
// (equivalently: swaps their FGK node numbers).
func (c *Coder) swapNodes(i, j int) {
	// Re-point the children of both nodes at their new parent positions.
	for _, ch := range [2]int{c.nodes[i].left, c.nodes[i].right} {
		if ch >= 0 {
			c.nodes[ch].parent = j
		}
	}
	for _, ch := range [2]int{c.nodes[j].left, c.nodes[j].right} {
		if ch >= 0 {
			c.nodes[ch].parent = i
		}
	}
	c.nodes[i], c.nodes[j] = c.nodes[j], c.nodes[i]
	// Each subtree keeps the parent that owns its new position.
	c.nodes[i].parent, c.nodes[j].parent = c.nodes[j].parent, c.nodes[i].parent
	for _, k := range [2]int{i, j} {
		switch s := c.nodes[k].symbol; {
		case s >= 0:
			c.leaf[s] = k
		case s == symNYT:
			c.nyt = k
		}
	}
	if c.meter != nil {
		c.meter.TreeRead(2)
		c.meter.TreeWrite(2)
	}
}

// checkInvariants verifies the structural invariants of the coder and
// returns a descriptive error on the first violation. The tests call it
// after every update.
func (c *Coder) checkInvariants() error {
	// Weight ordering: non-increasing by index.
	for i := 1; i < len(c.nodes); i++ {
		if c.nodes[i].weight > c.nodes[i-1].weight {
			return fmt.Errorf("huffman: weight ordering violated at %d (%d > %d)",
				i, c.nodes[i].weight, c.nodes[i-1].weight)
		}
	}
	seenNYT := 0
	for i, n := range c.nodes {
		switch {
		case n.symbol == symInternal:
			if n.left < 0 || n.right < 0 {
				return fmt.Errorf("huffman: internal node %d missing child", i)
			}
			if sum := c.nodes[n.left].weight + c.nodes[n.right].weight; sum != n.weight {
				return fmt.Errorf("huffman: node %d weight %d != children sum %d", i, n.weight, sum)
			}
			if c.nodes[n.left].parent != i || c.nodes[n.right].parent != i {
				return fmt.Errorf("huffman: node %d children disown it", i)
			}
		case n.symbol == symNYT:
			seenNYT++
			if i != c.nyt {
				return fmt.Errorf("huffman: NYT index cache %d, found at %d", c.nyt, i)
			}
			if n.weight != 0 {
				return fmt.Errorf("huffman: NYT weight %d != 0", n.weight)
			}
		default:
			if c.leaf[n.symbol] != i {
				return fmt.Errorf("huffman: leaf cache for symbol %d is %d, found at %d",
					n.symbol, c.leaf[n.symbol], i)
			}
			if n.weight == 0 {
				return fmt.Errorf("huffman: leaf %d (symbol %d) has zero weight", i, n.symbol)
			}
		}
		if i == 0 {
			if n.parent != -1 {
				return errors.New("huffman: root has a parent")
			}
		} else if n.parent < 0 || n.parent >= len(c.nodes) {
			return fmt.Errorf("huffman: node %d parent %d out of range", i, n.parent)
		}
	}
	if seenNYT != 1 {
		return fmt.Errorf("huffman: %d NYT nodes, want exactly 1", seenNYT)
	}
	return nil
}
