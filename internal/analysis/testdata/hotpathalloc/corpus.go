// Corpus for the hotpathalloc analyzer. Only functions annotated
// //repro:hotpath are held to the allocation-free contract; each case
// below exercises one allocation heuristic (escape, closure, boxing,
// bare append, literals, make/new, string concat, goroutines, dynamic
// and external calls) plus the //repro:allow escape hatch and the
// call-graph propagation through unannotated wrappers.
package corpus

import (
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"
)

type item struct{ a, b int }

// notHot allocates freely; without the annotation there is no contract.
func notHot() []*item {
	return []*item{{a: 1}, {b: 2}}
}

//repro:hotpath
func escapes() *item {
	return &item{a: 1} // want "not allocation-free: address of composite literal escapes to the heap"
}

//repro:hotpath
func closes(xs []int) int {
	f := func(x int) int { return x + 1 } // want "function literal allocates a closure"
	return f(1)                           // want "indirect call may allocate"
}

func anyArg(v interface{}) {}

//repro:hotpath
func boxes(x int) {
	anyArg(x) // want "argument boxed into interface"
}

//repro:hotpath
func bareAppend(s []int, v int) []int {
	return append(s, v) // want "append may grow the backing array"
}

//repro:hotpath
func literals() {
	m := map[int]int{} // want "map literal allocates"
	_ = m
	b := make([]byte, 16) // want "make allocates"
	_ = b
	p := new(item) // want "new allocates"
	_ = p
	s := []int{1, 2} // want "slice literal allocates its backing array"
	_ = s
}

//repro:hotpath
func concat(a, b string) string {
	return a + b // want "string concatenation allocates"
}

func helperClean() {}

//repro:hotpath
func spawns() {
	go helperClean() // want "go statement allocates a goroutine"
}

//repro:hotpath
func external(x int) string {
	// Two facts on one line: the int boxed into Sprintf's variadic any
	// parameter, and the external call itself.
	return fmt.Sprintf("%d", x) // want "argument boxed into interface" "calls fmt.Sprintf, assumed to allocate"
}

type ticker interface{ Tick() }

//repro:hotpath
func dynamic(v ticker) {
	v.Tick() // want "dynamic call to .*Tick may allocate"
}

// growsHelper is not annotated, so its allocation is charged to its
// hot-path callers through the call-graph summary.
func growsHelper(s []int) []int {
	return append(s, 1)
}

//repro:hotpath
func wrapped(s []int) { // want "not allocation-free: via corpus.growsHelper: append may grow the backing array"
	_ = growsHelper(s)
}

func wrapsTwice(s []int) []int { return growsHelper(s) }

// deepWrapped inherits the fact two hops down; the via names the
// immediate callee, the position stays the root append.
//
//repro:hotpath
func deepWrapped(s []int) { // want "not allocation-free: via corpus.wrapsTwice: append may grow the backing array"
	_ = wrapsTwice(s)
}

//repro:hotpath
func leafHot() *item {
	return &item{} // want "not allocation-free: address of composite literal escapes to the heap"
}

// callsLeafHot must NOT repeat leafHot's finding: an annotated callee
// is flagged directly, not cascaded into every annotated caller.
//
//repro:hotpath
func callsLeafHot() {
	_ = leafHot()
}

// preallocated shows both halves of the sizing discipline: the one-time
// make is excused explicitly, and appends carrying its capacity
// evidence are not charged at all.
//
//repro:hotpath
func preallocated(n int) []int {
	out := make([]int, 0, n) //repro:allow:hotpathalloc one-time sizing allocation is the point of preallocating
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// grown is the same discipline for a slice the function is handed:
// slices.Grow reserves the capacity (and is excused), and the appends
// after it, strconv's included, carry its evidence.
//
//repro:hotpath
func grown(b []byte, v int64) []byte {
	b = slices.Grow(b, 24) //repro:allow:hotpathalloc growth of a reused buffer is amortized
	b = append(b, '=')
	return strconv.AppendInt(b, v, 10)
}

// appendsBare has no sizing evidence: strconv.AppendInt is judged as
// the append builtin is.
//
//repro:hotpath
func appendsBare(b []byte, v int64) []byte {
	return strconv.AppendInt(b, v, 10) // want "calls strconv.AppendInt, which may grow its destination"
}

// decodes calls utf8's pure decoder, which never allocates.
//
//repro:hotpath
func decodes(s string) rune {
	r, _ := utf8.DecodeRuneInString(s)
	return r
}

// allowedAbove uses the line-above directive placement.
//
//repro:hotpath
func allowedAbove() *item {
	//repro:allow:hotpathalloc freelist refill is the documented cold path
	return &item{}
}

// clean is on the hot path and genuinely allocation-free.
//
//repro:hotpath
func clean(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

func hygiene() int {
	x := 1 //repro:allow:hotpathalloc nothing allocates here // want "unused //repro:allow:hotpathalloc suppression"
	return x
}

//repro:allow // want "malformed //repro:allow directive"
func malformedDirective() {}
