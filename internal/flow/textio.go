package flow

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// This file is the engine's file-input substrate, standing in for the
// HDFS layer of the paper's cluster: a text file is split into
// byte-range input splits, one per partition, and each task reads only
// its split — Hadoop/Spark's TextInputFormat semantics. A line belongs
// to the split in which it starts; a split begins after the first
// newline at-or-after its byte offset (except split 0) and reads
// through the end of the line that spans its upper boundary.

// TextFile returns a dataset of the file's lines, split into parts
// byte-range partitions. The file is re-opened and scanned lazily per
// task, so the whole file is never held by the driver. A non-positive
// parts uses the context default.
func TextFile(ctx *Context, path string, parts int) *Dataset[string] {
	if parts <= 0 {
		parts = ctx.cfg.DefaultPartitions
	}
	return &Dataset[string]{
		ctx:   ctx,
		parts: parts,
		compute: func(p int) ([]string, error) {
			return readSplit(path, p, parts)
		},
	}
}

func readSplit(path string, p, parts int) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("flow: textfile: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("flow: textfile: %w", err)
	}
	size := info.Size()
	lo := size * int64(p) / int64(parts)
	hi := size * int64(p+1) / int64(parts)
	if lo >= size {
		return nil, nil
	}
	if _, err := f.Seek(lo, io.SeekStart); err != nil {
		return nil, fmt.Errorf("flow: textfile: %w", err)
	}
	r := bufio.NewReaderSize(f, 256*1024)
	pos := lo
	if p > 0 {
		// Skip the partial line owned by the previous split.
		skipped, err := r.ReadString('\n')
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("flow: textfile: %w", err)
		}
		pos += int64(len(skipped))
	}
	// A line belongs to split p iff its first byte s lies in
	// (lo_p, hi_p] (with lo_0 = −1): read while the current line start
	// is ≤ hi, one line past the byte range — Hadoop's LineRecordReader
	// convention. Together with the skip above, every line is read
	// exactly once across splits.
	var lines []string
	for pos <= hi {
		line, err := r.ReadString('\n')
		if len(line) > 0 {
			pos += int64(len(line))
			for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
				line = line[:len(line)-1]
			}
			lines = append(lines, line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("flow: textfile: %w", err)
		}
	}
	return lines, nil
}
