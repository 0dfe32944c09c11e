// Package catalog holds the engine's metadata: table schemas, indexes,
// stored procedures and simple table statistics used by the optimizer.
package catalog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// Column describes one column of a table.
type Column struct {
	Name       string
	Type       sqltypes.Kind
	PrimaryKey bool
	NotNull    bool
}

// Table describes a table: its columns and indexes.
type Table struct {
	ID      int64
	Name    string
	Columns []Column
	// indexes is the index list, published copy-on-write: the planner
	// reads it with no lock while CREATE INDEX appends.
	//sqlcm:cow catalog.registry
	indexes atomic.Pointer[[]*Index]
}

// Indexes returns the table's indexes, primary key first. The slice is
// shared with every reader: callers must not write to it.
func (t *Table) Indexes() []*Index {
	if p := t.indexes.Load(); p != nil {
		return *p
	}
	return nil
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// PrimaryKeyColumn returns the position of the primary-key column, or -1.
func (t *Table) PrimaryKeyColumn() int {
	for i, c := range t.Columns {
		if c.PrimaryKey {
			return i
		}
	}
	return -1
}

// IndexByName returns the named index, or nil.
func (t *Table) IndexByName(name string) *Index {
	for _, ix := range t.Indexes() {
		if ix.Name == name {
			return ix
		}
	}
	return nil
}

// Index describes a secondary (or primary) index on a table.
type Index struct {
	Name    string
	Table   string
	Columns []int // column ordinals in the table schema
	Unique  bool
	Primary bool
}

// Procedure is a stored procedure: parameters and a parsed body.
type Procedure struct {
	Name   string
	Params []sqlparser.ProcParam
	Body   []sqlparser.Statement
	Text   string // original CREATE PROCEDURE source
}

// Stats carries per-table statistics for the cost model.
type Stats struct {
	RowCount int64
}

// Catalog is the thread-safe metadata registry.
type Catalog struct {
	// mu protects the table, procedure and stats maps.
	//sqlcm:lock catalog.registry
	//sqlcm:guards tables, procs, stats, nextID
	mu     sync.RWMutex
	tables map[string]*Table
	procs  map[string]*Procedure
	stats  map[string]*Stats
	nextID int64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables: make(map[string]*Table),
		procs:  make(map[string]*Procedure),
		stats:  make(map[string]*Stats),
		nextID: 1,
	}
}

// CreateTable registers a table. The schema must have at most one primary
// key column; duplicate column names are rejected.
func (c *Catalog) CreateTable(name string, cols []Column) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: table %q must have at least one column", name)
	}
	seen := make(map[string]bool, len(cols))
	pk := 0
	for _, col := range cols {
		if seen[col.Name] {
			return nil, fmt.Errorf("catalog: duplicate column %q in table %q", col.Name, name)
		}
		seen[col.Name] = true
		if col.PrimaryKey {
			pk++
		}
	}
	if pk > 1 {
		return nil, fmt.Errorf("catalog: table %q has %d primary key columns", name, pk)
	}
	t := &Table{ID: c.nextID, Name: name, Columns: append([]Column(nil), cols...)}
	c.nextID++
	if i := t.PrimaryKeyColumn(); i >= 0 {
		t.indexes.Store(&[]*Index{{
			Name:    name + "_pk",
			Table:   name,
			Columns: []int{i},
			Unique:  true,
			Primary: true,
		}})
	}
	c.tables[name] = t
	c.stats[name] = &Stats{}
	return t, nil
}

// DropTable removes a table and its metadata.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.tables, name)
	delete(c.stats, name)
	return nil
}

// Table returns the named table, or an error.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// Tables returns the table names in sorted order.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NewIndex validates a secondary index on an existing table and returns
// its description without registering it: the planner cannot pick the
// index until AddIndex publishes it, which CREATE INDEX does only once the
// tree is built.
func (c *Catalog) NewIndex(name, table string, columns []string, unique bool) (*Index, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[table]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", table)
	}
	if t.IndexByName(name) != nil {
		return nil, fmt.Errorf("catalog: index %q already exists on %q", name, table)
	}
	ords := make([]int, len(columns))
	for i, col := range columns {
		ord := t.ColumnIndex(col)
		if ord < 0 {
			return nil, fmt.Errorf("catalog: no column %q in table %q", col, table)
		}
		ords[i] = ord
	}
	return &Index{Name: name, Table: table, Columns: ords, Unique: unique}, nil
}

// AddIndex registers an index built from NewIndex.
func (c *Catalog) AddIndex(ix *Index) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[ix.Table]
	if !ok {
		return fmt.Errorf("catalog: table %q does not exist", ix.Table)
	}
	if t.IndexByName(ix.Name) != nil {
		return fmt.Errorf("catalog: index %q already exists on %q", ix.Name, ix.Table)
	}
	next := append(append([]*Index(nil), t.Indexes()...), ix)
	t.indexes.Store(&next)
	return nil
}

// CreateIndex is NewIndex followed by AddIndex, for callers with no tree
// to build in between.
func (c *Catalog) CreateIndex(name, table string, columns []string, unique bool) (*Index, error) {
	ix, err := c.NewIndex(name, table, columns, unique)
	if err != nil {
		return nil, err
	}
	return ix, c.AddIndex(ix)
}

// CreateProcedure registers a stored procedure.
func (c *Catalog) CreateProcedure(p *Procedure) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.procs[p.Name]; ok {
		return fmt.Errorf("catalog: procedure %q already exists", p.Name)
	}
	c.procs[p.Name] = p
	return nil
}

// Procedure returns the named stored procedure, or an error.
func (c *Catalog) Procedure(name string) (*Procedure, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.procs[name]
	if !ok {
		return nil, fmt.Errorf("catalog: procedure %q does not exist", name)
	}
	return p, nil
}

// Stats returns the statistics for a table (zero stats if unknown).
func (c *Catalog) Stats(table string) Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if s, ok := c.stats[table]; ok {
		return *s
	}
	return Stats{}
}

// AddRows adjusts the row count for a table by delta.
func (c *Catalog) AddRows(table string, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.stats[table]; ok {
		s.RowCount += delta
		if s.RowCount < 0 {
			s.RowCount = 0
		}
	}
}
