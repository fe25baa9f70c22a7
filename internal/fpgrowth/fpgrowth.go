// Package fpgrowth implements the FPGrowth frequent-itemset mining
// algorithm of Han et al. [29], which the tile extraction uses to find
// common key-path structures (paper §3.3). Unlike Apriori, FPGrowth
// generates no candidate sets: it compresses the transaction database
// into a prefix tree of frequent items (the FP-tree) and recursively
// mines conditional trees.
//
// Result-size explosion is the known hazard — in the worst case the
// number of frequent itemsets is the powerset of the frequent items.
// The miner therefore enforces the paper's budget (Eq. 1): it derives
// the largest itemset size k such that Σᵢ₌₁ᵏ C(n,i) stays within the
// budget u, bounds the recursion depth by k, and additionally caps the
// absolute number of emitted itemsets, degrading gracefully (smaller
// itemsets are produced first, exactly as the paper prescribes).
package fpgrowth

import (
	"encoding/binary"
	"slices"
	"sort"
)

// Itemset is a set of item ids frequent in the mined database.
type Itemset struct {
	Items []int32 // sorted ascending
	Count int     // number of transactions containing every item
}

// Miner configures a mining run. The zero value is not useful: set
// MinSupport to an absolute transaction count.
type Miner struct {
	// MinSupport is the absolute frequency threshold: an itemset is
	// frequent iff at least MinSupport transactions contain it.
	MinSupport int
	// Budget is the paper's u — an upper bound on the number of
	// itemsets the miner may generate. Zero selects DefaultBudget.
	Budget int
}

// DefaultBudget bounds itemset generation when the caller does not
// choose one. Tiles hold 2^10..2^12 tuples with tens of distinct key
// paths; 4096 potential itemsets is far beyond what extraction needs
// while keeping worst-case mining cheap.
const DefaultBudget = 4096

// fpNode is one FP-tree node. Children are kept in a small sorted
// slice: trees built from rigid machine-generated documents have tiny
// fan-out, where a slice beats a map.
type fpNode struct {
	item     int32
	count    int
	parent   *fpNode
	children []*fpNode
	nextLink *fpNode // header-table chain of nodes with the same item
}

func (n *fpNode) child(item int32) *fpNode {
	for _, c := range n.children {
		if c.item == item {
			return c
		}
	}
	return nil
}

type headerEntry struct {
	item  int32
	count int
	head  *fpNode
}

type fpTree struct {
	root    *fpNode
	headers []headerEntry // ascending total count (mining order)
	index   map[int32]int // item -> headers position
}

// Mine returns all frequent itemsets of the transaction database,
// subject to MinSupport and the budget. Each transaction is a set of
// item ids (duplicates within a transaction are ignored). Itemsets
// come out deterministically ordered: ascending size, then
// lexicographically by items.
//
// The FP-tree is built from the distinct transactions (GroupShapes),
// each inserted once with its multiplicity in first-seen order. Node,
// child, header and link order are therefore those of a one-by-one
// build, and so is the output.
func (m *Miner) Mine(transactions [][]int32) []Itemset {
	if m.MinSupport < 1 {
		return nil
	}
	budget := m.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	shapes := GroupShapes(transactions)

	// Pass 1: global item frequencies.
	freq := map[int32]int{}
	for si, items := range shapes.Items {
		for _, it := range items {
			freq[it] += shapes.Mult[si]
		}
	}
	var frequentItems []int32
	for it, c := range freq {
		if c >= m.MinSupport {
			frequentItems = append(frequentItems, it)
		}
	}
	if len(frequentItems) == 0 {
		return nil
	}
	// Depth bound from Eq. 1.
	maxK := maxItemsetSize(len(frequentItems), budget)

	// Insertion order: descending frequency, ties by ascending item id
	// (deterministic trees regardless of map iteration order).
	sort.Slice(frequentItems, func(i, j int) bool {
		fi, fj := freq[frequentItems[i]], freq[frequentItems[j]]
		if fi != fj {
			return fi > fj
		}
		return frequentItems[i] < frequentItems[j]
	})
	rank := make(map[int32]int32, len(frequentItems))
	for pos, it := range frequentItems {
		rank[it] = int32(pos)
	}

	// Pass 2: build the FP-tree. Each shape's frequent items are sorted
	// by rank, then mapped back to item ids.
	tree := newTree()
	ranks := make([]int32, 0, 16)
	path := make([]int32, 0, 16)
	for si, items := range shapes.Items {
		ranks = ranks[:0]
		for _, it := range items {
			if r, ok := rank[it]; ok {
				ranks = append(ranks, r)
			}
		}
		if len(ranks) == 0 {
			continue
		}
		slices.Sort(ranks)
		path = path[:0]
		for _, r := range ranks {
			path = append(path, frequentItems[r])
		}
		tree.insert(path, shapes.Mult[si])
	}

	st := &mineState{minSupport: m.MinSupport, budget: budget, maxK: maxK}
	st.mine(tree, nil)

	sort.Slice(st.out, func(i, j int) bool { return lessItemset(st.out[i], st.out[j]) })
	return st.out
}

// Shapes groups a transaction list by distinct item set.
type Shapes struct {
	// Items holds each distinct transaction once, sorted ascending and
	// deduplicated, in order of first occurrence.
	Items [][]int32
	// Mult[s] is the number of transactions whose item set is Items[s].
	Mult []int
	// Of[t] is the index into Items of transaction t.
	Of []int32
}

// GroupShapes groups transactions into their distinct sorted item
// slices. Transactions that are already strictly ascending are shared,
// not copied; the others are copied, sorted and deduplicated first.
// Work proportional to distinct shapes instead of transactions is what
// makes mining and reordering cheap on rigid data: a partition of
// 8,192 machine-generated records usually has a handful of shapes.
func GroupShapes(txs [][]int32) Shapes {
	sh := Shapes{Of: make([]int32, len(txs))}
	index := map[string]int32{}
	var key []byte
	for t, tx := range txs {
		if !strictlyAscending(tx) {
			tx = append([]int32(nil), tx...)
			slices.Sort(tx)
			tx = dedupSorted(tx)
		}
		key = AppendKey(key[:0], tx)
		si, ok := index[string(key)]
		if !ok {
			si = int32(len(sh.Items))
			index[string(key)] = si
			sh.Items = append(sh.Items, tx)
			sh.Mult = append(sh.Mult, 0)
		}
		sh.Mult[si]++
		sh.Of[t] = si
	}
	return sh
}

// AppendKey appends the byte encoding of items to dst: four
// little-endian bytes per item. Equal item slices have equal keys, so
// the key can index a map.
func AppendKey(dst []byte, items []int32) []byte {
	for _, it := range items {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(it))
	}
	return dst
}

func strictlyAscending(s []int32) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

func newTree() *fpTree {
	return &fpTree{root: &fpNode{item: -1}, index: map[int32]int{}}
}

// insert adds one (pattern-ordered, deduplicated) transaction path,
// accumulating header-table support totals as it goes.
func (t *fpTree) insert(items []int32, count int) {
	cur := t.root
	for _, it := range items {
		next := cur.child(it)
		if next == nil {
			next = &fpNode{item: it, parent: cur}
			cur.children = append(cur.children, next)
			hi, ok := t.index[it]
			if !ok {
				hi = len(t.headers)
				t.index[it] = hi
				t.headers = append(t.headers, headerEntry{item: it})
			}
			next.nextLink = t.headers[hi].head
			t.headers[hi].head = next
		}
		next.count += count
		cur = next
	}
	for _, it := range items {
		t.headers[t.index[it]].count += count
	}
}

// singlePath returns the single chain of nodes when the tree is a
// path, enabling the classic all-combinations shortcut.
func (t *fpTree) singlePath() []*fpNode {
	var path []*fpNode
	cur := t.root
	for {
		if len(cur.children) == 0 {
			return path
		}
		if len(cur.children) > 1 {
			return nil
		}
		cur = cur.children[0]
		path = append(path, cur)
	}
}

type mineState struct {
	minSupport int
	budget     int
	maxK       int
	generated  int
	out        []Itemset
}

func (s *mineState) emit(items []int32, count int) bool {
	if s.generated >= s.budget {
		return false
	}
	s.generated++
	sorted := append([]int32(nil), items...)
	slices.Sort(sorted)
	s.out = append(s.out, Itemset{Items: sorted, Count: count})
	return true
}

// mine recursively emits suffix-extended itemsets. Header entries are
// processed in ascending support order (the FPGrowth convention).
func (s *mineState) mine(t *fpTree, suffix []int32) {
	if s.generated >= s.budget || len(suffix) >= s.maxK {
		return
	}
	// Single-path shortcut: every combination of path nodes is
	// frequent with the count of its deepest node.
	if path := t.singlePath(); path != nil {
		s.minePath(path, suffix)
		return
	}

	headers := append([]headerEntry(nil), t.headers...)
	sort.Slice(headers, func(i, j int) bool {
		if headers[i].count != headers[j].count {
			return headers[i].count < headers[j].count
		}
		return headers[i].item < headers[j].item
	})
	for _, h := range headers {
		if h.count < s.minSupport {
			continue
		}
		itemset := append(append([]int32(nil), suffix...), h.item)
		if !s.emit(itemset, h.count) {
			return
		}
		if len(itemset) >= s.maxK {
			continue
		}
		// Conditional pattern base: prefix paths of every node
		// carrying h.item.
		cond := newTree()
		var prefix []int32
		for node := h.head; node != nil; node = node.nextLink {
			prefix = prefix[:0]
			for p := node.parent; p != nil && p.item != -1; p = p.parent {
				prefix = append(prefix, p.item)
			}
			if len(prefix) == 0 {
				continue
			}
			// prefix is leaf→root; reverse to root→leaf insertion order.
			for i, j := 0, len(prefix)-1; i < j; i, j = i+1, j-1 {
				prefix[i], prefix[j] = prefix[j], prefix[i]
			}
			cond.insert(prefix, node.count)
		}
		if len(cond.headers) > 0 {
			cond.prune(s.minSupport)
			s.mine(cond, itemset)
		}
	}
}

// minePath emits all combinations of a single-path tree appended to
// the suffix, smallest combinations first so budget exhaustion keeps
// the small itemsets (graceful degradation).
func (s *mineState) minePath(path []*fpNode, suffix []int32) {
	// Filter to frequent nodes.
	var nodes []*fpNode
	for _, n := range path {
		if n.count >= s.minSupport {
			nodes = append(nodes, n)
		}
	}
	maxChoose := s.maxK - len(suffix)
	if maxChoose > len(nodes) {
		maxChoose = len(nodes)
	}
	idx := make([]int, 0, maxChoose)
	var rec func(start int)
	rec = func(start int) {
		if len(idx) > 0 {
			// Support of a combination is the count of its deepest
			// (last, since path order is root→leaf) node.
			items := append([]int32(nil), suffix...)
			minCount := nodes[idx[0]].count
			for _, i := range idx {
				items = append(items, nodes[i].item)
				if nodes[i].count < minCount {
					minCount = nodes[i].count
				}
			}
			if !s.emit(items, minCount) {
				return
			}
		}
		if len(idx) >= maxChoose {
			return
		}
		for i := start; i < len(nodes); i++ {
			idx = append(idx, i)
			rec(i + 1)
			idx = idx[:len(idx)-1]
			if s.generated >= s.budget {
				return
			}
		}
	}
	rec(0)
}

// prune removes infrequent items from a conditional tree by filtering
// its header table; nodes stay in place (their paths simply skip
// infrequent items during the next conditional-base walk). For
// correctness of count propagation we rebuild instead: cheaper trees
// are tiny in practice.
func (t *fpTree) prune(minSupport int) {
	keep := map[int32]bool{}
	for _, h := range t.headers {
		if h.count >= minSupport {
			keep[h.item] = true
		}
	}
	if len(keep) == len(t.headers) {
		return
	}
	// Rebuild the tree with only kept items.
	old := *t
	*t = *newTree()
	var walk func(n *fpNode, path []int32)
	walk = func(n *fpNode, path []int32) {
		if n.item >= 0 && keep[n.item] {
			path = append(path, n.item)
		}
		childSum := 0
		for _, c := range n.children {
			childSum += c.count
			walk(c, path)
		}
		// A node's own weight beyond its children represents
		// transactions ending here.
		if n.item >= 0 {
			if own := n.count - childSum; own > 0 && len(path) > 0 {
				t.insert(path, own)
			}
		}
	}
	walk(old.root, nil)
}

// maxItemsetSize computes the largest k with Σᵢ₌₁ᵏ C(n,i) ≤ u (Eq. 1),
// with k at least 1 so mining always proceeds.
func maxItemsetSize(n, u int) int {
	total := 0
	binom := 1
	for k := 1; k <= n; k++ {
		// C(n,k) = C(n,k-1) * (n-k+1) / k, guarded against overflow.
		binom = binom * (n - k + 1) / k
		if binom < 0 || total+binom > u {
			if k == 1 {
				return 1
			}
			return k - 1
		}
		total += binom
	}
	return n
}

// Maximal filters sets to those not strictly contained in another
// frequent set — the tile extractor materializes the union of maximal
// itemsets (§3.1 step 3).
//
// Items are remapped to dense ids so every set becomes a bitset. Sets
// are visited in size-descending order and tested only against the
// maximal sets of strictly larger size: a set contained in a
// non-maximal set is also contained in the maximal set above it, so
// the result is that of testing against every larger set.
func Maximal(sets []Itemset) []Itemset {
	dense := map[int32]int{}
	for _, s := range sets {
		for _, it := range s.Items {
			if _, ok := dense[it]; !ok {
				dense[it] = len(dense)
			}
		}
	}
	words := (len(dense) + 63) / 64
	bits := make([]uint64, len(sets)*words)
	for i, s := range sets {
		b := bits[i*words : (i+1)*words]
		for _, it := range s.Items {
			d := dense[it]
			b[d/64] |= 1 << (d % 64)
		}
	}
	bySize := make([]int, len(sets))
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool {
		return len(sets[bySize[a]].Items) > len(sets[bySize[b]].Items)
	})

	var out []Itemset
	var larger []int // maximal sets of strictly larger size than the current run
	for lo := 0; lo < len(bySize); {
		size := len(sets[bySize[lo]].Items)
		hi := lo
		for hi < len(bySize) && len(sets[bySize[hi]].Items) == size {
			hi++
		}
		runStart := len(larger)
		for _, i := range bySize[lo:hi] {
			a := bits[i*words : (i+1)*words]
			maximal := true
			for _, j := range larger[:runStart] {
				if bitSubset(a, bits[j*words:(j+1)*words]) {
					maximal = false
					break
				}
			}
			if maximal {
				out = append(out, sets[i])
				larger = append(larger, i)
			}
		}
		lo = hi
	}
	// Largest, most frequent first: the extraction step unions in
	// this order.
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Items) != len(out[j].Items) {
			return len(out[i].Items) > len(out[j].Items)
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return lessItems(out[i].Items, out[j].Items)
	})
	return out
}

// bitSubset reports a ⊆ b for equal-length bitsets.
func bitSubset(a, b []uint64) bool {
	for w := range a {
		if a[w]&^b[w] != 0 {
			return false
		}
	}
	return true
}

// Contains reports whether the sorted itemset contains item.
func (s Itemset) Contains(item int32) bool {
	lo, hi := 0, len(s.Items)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s.Items[mid] < item:
			lo = mid + 1
		case s.Items[mid] > item:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// Overlap counts how many of the sorted items appear in the sorted
// transaction — used by reordering to match tuples to itemsets.
func Overlap(items, tx []int32) int {
	i, n := 0, 0
	for _, x := range items {
		for i < len(tx) && tx[i] < x {
			i++
		}
		if i < len(tx) && tx[i] == x {
			n++
			i++
		}
	}
	return n
}

func dedupSorted(s []int32) []int32 {
	if len(s) < 2 {
		return s
	}
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

func lessItemset(a, b Itemset) bool {
	if len(a.Items) != len(b.Items) {
		return len(a.Items) < len(b.Items)
	}
	return lessItems(a.Items, b.Items)
}

func lessItems(a, b []int32) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
