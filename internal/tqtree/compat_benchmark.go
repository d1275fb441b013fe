package tqtree

// The build names the repository benchmark (benchmark/layers.go, its own
// module and their only caller) still compiles against. They forward to
// the one build and hold no logic; nothing else may use them. ROADMAP
// item 1 moves the benchmark to BuildFrozen and deletes this file.

import "github.com/trajcover/trajcover/internal/trajectory"

// Tree is Frozen under the pointer tree's former name.
type Tree = Frozen

// Build is BuildFrozen.
func Build(users []*trajectory.Trajectory, opts Options) (*Tree, error) {
	return BuildFrozen(users, opts)
}

// Freeze returns t: the index is already frozen.
func Freeze(t *Tree) (*Frozen, error) { return t, nil }
