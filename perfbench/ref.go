package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
)

// readCSV loads a committed reference table as header-keyed rows.
func readCSV(root, rel string) ([]map[string]string, error) {
	f, err := os.Open(filepath.Join(root, rel))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", rel, err)
	}
	if len(recs) < 2 {
		return nil, fmt.Errorf("reference %s: no rows", rel)
	}
	var rows []map[string]string
	for _, r := range recs[1:] {
		row := map[string]string{}
		for i, col := range recs[0] {
			if i < len(r) {
				row[col] = r[i]
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// checker counts checked operations and reports mismatches.
type checker struct {
	e                 *env
	attempted, failed int64
}

// check records one operation: it fails when err is set or got differs
// from want.
func (c *checker) check(what string, err error, got, want any) {
	c.attempted++
	switch {
	case err != nil:
		c.failed++
		fmt.Fprintf(c.e.log, "FAIL %s: %v\n", what, err)
	case got != want:
		c.failed++
		fmt.Fprintf(c.e.log, "FAIL %s: got %v, reference %v\n", what, got, want)
	}
}
