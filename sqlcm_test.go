package sqlcm

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sqlcm/internal/rules"
)

func openDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestPublicAPIQuickstart(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)", nil); err != nil {
		t.Fatal(err)
	}
	sess := db.Session("alice", "quickstart")
	for i := 1; i <= 10; i++ {
		if _, err := sess.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d.5)", i, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Exec("SELECT COUNT(*), AVG(v) FROM t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 10 {
		t.Fatalf("count: %v", res.Rows[0][0])
	}
}

func TestPublicAPIMonitoringFlow(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineLAT(LATSpec{
		Name:    "ByTemplate",
		GroupBy: []string{"Logical_Signature"},
		Aggs: []AggCol{
			{Func: Count, Name: "N"},
			{Func: Avg, Attr: "Duration", Name: "AvgD"},
			{Func: First, Attr: "Query_Text", Name: "Sample"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewRule("collect", "Query.Commit", "", &InsertAction{LAT: "ByTemplate"}); err != nil {
		t.Fatal(err)
	}
	sess := db.Session("bob", "app")
	for i := 1; i <= 20; i++ {
		if _, err := sess.Exec("INSERT INTO t VALUES (@i, @v)", map[string]Value{
			"i": NewInt(int64(i)), "v": NewFloat(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 5; i++ {
		if _, err := sess.Exec(fmt.Sprintf("SELECT v FROM t WHERE id = %d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	lt, ok := db.LAT("ByTemplate")
	if !ok {
		t.Fatal("LAT missing")
	}
	if lt.Len() != 2 { // insert template + select template
		t.Fatalf("templates: %d", lt.Len())
	}
	if err := db.PersistLAT("ByTemplate", "template_report"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.ReadTable("template_report")
	if err != nil || len(rows) != 2 {
		t.Fatalf("report: %d rows %v", len(rows), err)
	}
	if !db.RemoveRule("collect") {
		t.Fatal("remove rule")
	}
	if !db.DropLAT("ByTemplate") {
		t.Fatal("drop LAT")
	}
}

// TestAdhocTemplatesShareOnePlan: ad-hoc texts that differ only in their
// literals are one template — one cached plan, one signature computation,
// one Logical_Signature group — and Number_of_instances counts them all.
func TestAdhocTemplatesShareOnePlan(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec("CREATE TABLE r (id INT PRIMARY KEY, v FLOAT)", nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		if err := db.Engine().InsertRowDirect("r", []Value{NewInt(int64(i)), NewFloat(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.DefineLAT(LATSpec{
		Name:    "Duration_LAT",
		GroupBy: []string{"Logical_Signature"},
		Aggs:    []AggCol{{Func: Avg, Attr: "Duration", Name: "Avg_Duration"}, {Func: Count, Name: "N"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewRule("maintain", "Query.Commit", "", &InsertAction{LAT: "Duration_LAT"}); err != nil {
		t.Fatal(err)
	}
	var instances atomic.Int64
	if _, err := db.NewRule("instances", "Query.Commit", "", &FuncAction{Name: "instances",
		Fn: func(_ rules.Env, ctx *rules.Ctx) error {
			if v, ok := ctx.Attr("Query.Number_of_instances"); ok {
				instances.Store(v.Int())
			}
			return nil
		}}); err != nil {
		t.Fatal(err)
	}
	sess := db.Session("adhoc", "app")
	const texts = 10000
	for i := 0; i < texts; i++ {
		lo := i%190 + 1
		sql := fmt.Sprintf("SELECT id, v FROM r WHERE id >= %d AND id < %d AND v > %d.5", lo, lo+1+i/190, i%3)
		if _, err := sess.Exec(sql, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !db.Flush(5 * time.Second) {
		t.Fatal("flush timed out")
	}
	if n := db.Engine().PlanCacheSize(); n != 1 {
		t.Errorf("plan cache holds %d plans, want 1", n)
	}
	if n := db.Monitor().SigComputes(); n != 1 {
		t.Errorf("signatures computed %d times, want 1", n)
	}
	if n := instances.Load(); n != texts {
		t.Errorf("last Number_of_instances = %d, want %d", n, texts)
	}
	if lt, _ := db.LAT("Duration_LAT"); lt.Len() != 1 {
		t.Errorf("Duration_LAT has %d groups, want 1", lt.Len())
	}
}

func TestPublicAPITimerAndMail(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY)", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewRule("heartbeat", "Timer.Alarm", "",
		&SendMailAction{Address: "ops@example.com", Text: "tick {Name} #{Alarm_Count}"},
	); err != nil {
		t.Fatal(err)
	}
	if err := db.SetTimer("hb", 20*time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	mm := db.Monitor().Mailer().(*MemMailer)
	sent := mm.Sent()
	if len(sent) != 2 {
		t.Fatalf("mails: %d", len(sent))
	}
	if !strings.Contains(sent[0].Body, "tick hb #1") {
		t.Fatalf("body: %q", sent[0].Body)
	}
}
