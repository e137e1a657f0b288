package server

import (
	"testing"

	"milvideo/internal/videodb"
)

// synthRecord wraps SynthRecord for tests: the synthetic clip's
// incident log marks the accident windows, so ground-truth judges on
// both sides of the wire (core.OracleFromRecord offline,
// JudgeFromRecord on the client) agree exactly.
func synthRecord(t *testing.T, seed int64, nRelevant, nDistractor, nNormal int) *videodb.ClipRecord {
	t.Helper()
	rec, err := SynthRecord(seed, nRelevant, nDistractor, nNormal)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// testCatalog wraps the record in a catalog.
func testCatalog(t *testing.T, rec *videodb.ClipRecord) *videodb.DB {
	t.Helper()
	db := videodb.New()
	if err := db.Add(rec); err != nil {
		t.Fatal(err)
	}
	return db
}

// indexCount reports how many built part indexes the clip cache holds.
func (c *clipCache) indexCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.entries {
		n += e.built()
	}
	return n
}
