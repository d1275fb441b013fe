package query

// The engine names the repository benchmark (benchmark/layers.go, its own
// module and their only caller) still compiles against. They forward to
// FrozenEngine and hold no logic; nothing else may use them. ROADMAP item
// 1 moves the benchmark to NewFrozenEngine and deletes this file.

import (
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Engine is FrozenEngine under its former name.
type Engine = FrozenEngine

// NewEngine is NewFrozenEngine.
func NewEngine(f *tqtree.Tree, users *trajectory.Set) *Engine { return NewFrozenEngine(f, users) }
