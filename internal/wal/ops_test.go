package wal

import "rankjoin/internal/shard"

// The package's tests name the two logged operations unqualified.
const (
	OpInsert = shard.OpInsert
	OpDelete = shard.OpDelete
)
