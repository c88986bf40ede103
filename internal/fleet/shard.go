package fleet

// Shard is one rack-group partition of the fleet: the contiguous node
// index range [Lo, Hi). Shards are the unit of parallel work — distinct
// shards touch disjoint node state, so any assignment of shards to workers
// computes the same fleet state.
type Shard struct {
	// Lo and Hi bound the shard's node index range: [Lo, Hi).
	Lo, Hi int
}

// partition slices n nodes into shards of the given size (default
// DefaultShardSize; the last shard takes the remainder).
func partition(n, size int) []Shard {
	if size <= 0 {
		size = DefaultShardSize
	}
	shards := make([]Shard, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		shards = append(shards, Shard{Lo: lo, Hi: min(lo+size, n)})
	}
	return shards
}
