package catalog

import (
	"testing"

	"sqlcm/internal/sqltypes"
)

func testCols() []Column {
	return []Column{
		{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true, NotNull: true},
		{Name: "name", Type: sqltypes.KindString},
		{Name: "price", Type: sqltypes.KindFloat},
	}
}

func TestCreateTableAndLookup(t *testing.T) {
	c := New()
	tbl, err := c.CreateTable("t", testCols())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID == 0 {
		t.Error("table id should be assigned")
	}
	got, err := c.Table("t")
	if err != nil || got != tbl {
		t.Fatalf("lookup: %v %v", got, err)
	}
	if tbl.ColumnIndex("price") != 2 || tbl.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex wrong")
	}
	if tbl.PrimaryKeyColumn() != 0 {
		t.Error("PrimaryKeyColumn wrong")
	}
	// Primary key auto-creates a unique index.
	if len(tbl.Indexes()) != 1 || !tbl.Indexes()[0].Primary || !tbl.Indexes()[0].Unique {
		t.Fatalf("pk index: %+v", tbl.Indexes())
	}
}

func TestCreateTableErrors(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", nil); err == nil {
		t.Error("empty columns should fail")
	}
	if _, err := c.CreateTable("t", []Column{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Error("duplicate columns should fail")
	}
	if _, err := c.CreateTable("t", []Column{{Name: "a", PrimaryKey: true}, {Name: "b", PrimaryKey: true}}); err == nil {
		t.Error("two PKs should fail")
	}
	if _, err := c.CreateTable("t", testCols()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t", testCols()); err == nil {
		t.Error("duplicate table should fail")
	}
}

func TestDropTable(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", testCols()); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("t"); err == nil {
		t.Error("dropped table still visible")
	}
	if err := c.DropTable("t"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestCreateIndex(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", testCols()); err != nil {
		t.Fatal(err)
	}
	ix, err := c.CreateIndex("by_name", "t", []string{"name", "price"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Columns) != 2 || ix.Columns[0] != 1 || ix.Columns[1] != 2 {
		t.Fatalf("ordinals: %+v", ix.Columns)
	}
	tbl, _ := c.Table("t")
	if tbl.IndexByName("by_name") != ix {
		t.Error("IndexByName lookup failed")
	}
	if _, err := c.CreateIndex("by_name", "t", []string{"name"}, false); err == nil {
		t.Error("duplicate index should fail")
	}
	if _, err := c.CreateIndex("x", "t", []string{"nope"}, false); err == nil {
		t.Error("bad column should fail")
	}
	if _, err := c.CreateIndex("x", "missing", []string{"a"}, false); err == nil {
		t.Error("bad table should fail")
	}
}

func TestProcedures(t *testing.T) {
	c := New()
	p := &Procedure{Name: "p"}
	if err := c.CreateProcedure(p); err != nil {
		t.Fatal(err)
	}
	got, err := c.Procedure("p")
	if err != nil || got != p {
		t.Fatal("lookup failed")
	}
	if err := c.CreateProcedure(p); err == nil {
		t.Error("duplicate proc should fail")
	}
	if _, err := c.Procedure("q"); err == nil {
		t.Error("missing proc should fail")
	}
}

func TestStats(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", testCols()); err != nil {
		t.Fatal(err)
	}
	c.AddRows("t", 10)
	c.AddRows("t", -3)
	if got := c.Stats("t").RowCount; got != 7 {
		t.Errorf("RowCount = %d", got)
	}
	c.AddRows("t", -100)
	if got := c.Stats("t").RowCount; got != 0 {
		t.Errorf("RowCount clamps at 0, got %d", got)
	}
	if got := c.Stats("missing").RowCount; got != 0 {
		t.Errorf("missing table stats = %d", got)
	}
}

func TestTablesSorted(t *testing.T) {
	c := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.CreateTable(n, testCols()); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Tables()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tables() = %v", got)
		}
	}
}
