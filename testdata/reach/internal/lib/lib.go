// Package lib is the reachability checker's fixture: two of its
// functions are dead, the rest are reached.
package lib

import "strconv"

// Live is called from cmd/app's main.
func Live() Kind { return first }

// Dead is exported but nothing calls it.
func Dead() int { return deadOnly() + 1 }

// deadOnly is called only from Dead.
func deadOnly() int { return 2 }

// BenchOnly is called only from the bench/ directory.
func BenchOnly() int { return 3 }

// Kind is reached through Live's result.
type Kind int

// An iota block is one declaration: second is reached with first.
const (
	first Kind = iota + 1
	second
)

// String satisfies fmt.Stringer, so main's Println reaches it.
func (k Kind) String() string { return "kind" + strconv.Itoa(int(k)) }
