package trajcover

// The live-sharded names Index replaced, kept only because the repository
// benchmark (benchmark/, its own module) still compiles against them.
// Nothing else may use them. ROADMAP item 1 moves the benchmark to Index
// and deletes this file.

// LiveShardedIndex is Index under its former name.
type LiveShardedIndex = Index

// LiveShardOptions configures NewLiveShardedIndex.
type LiveShardOptions struct {
	Shards      int
	Partitioner Partitioner
	Index       IndexOptions
	Policy      LivePolicy
}

// NewLiveShardedIndex is NewIndex with opts' fields in IndexOptions.
func NewLiveShardedIndex(users []*Trajectory, opts LiveShardOptions) (*Index, error) {
	o := opts.Index
	o.Shards, o.Partitioner, o.Policy = opts.Shards, opts.Partitioner, opts.Policy
	return NewIndex(users, o)
}

// OpenLiveShardedIndex is OpenIndex.
func OpenLiveShardedIndex(opts WALOptions, pol LivePolicy, bootstrap func() (*Index, error)) (*Index, error) {
	return OpenIndex(opts, pol, bootstrap)
}
