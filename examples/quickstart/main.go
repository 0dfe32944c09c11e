// Quickstart: open a monitored database, load one LAT and two rules from
// examples/rulesets/quickstart.rules (among them the slow-query persist
// rule from §2.3 of the paper), run some SQL, and inspect what the
// monitor collected.
package main

import (
	"fmt"
	"log"
	"slices"
	"strings"

	"sqlcm"
	"sqlcm/examples/rulesets"
)

func main() {
	db, err := sqlcm.Open(sqlcm.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// ByTemplate groups every committed statement by its logical
	// signature (i.e. by query template) with execution statistics per
	// template; the slow rule persists any statement slower than 100s.
	src, err := rulesets.FS.ReadFile("quickstart.rules")
	if err != nil {
		log.Fatal(err)
	}
	if err := db.LoadRuleSet(string(src)); err != nil {
		log.Fatal(err)
	}

	// Ordinary application work.
	sess := db.Session("alice", "quickstart")
	mustExec(sess, "CREATE TABLE accounts (id INT PRIMARY KEY, owner VARCHAR NOT NULL, balance FLOAT)")
	for i := 1; i <= 100; i++ {
		mustExec(sess, fmt.Sprintf("INSERT INTO accounts VALUES (%d, 'user%d', %d.0)", i, i%7, i*10))
	}
	for i := 1; i <= 50; i++ {
		mustExec(sess, fmt.Sprintf("SELECT balance FROM accounts WHERE id = %d", i))
	}
	mustExec(sess, "SELECT owner, SUM(balance) FROM accounts GROUP BY owner")

	// What did the monitor see?
	lt, _ := db.LAT("ByTemplate")
	fmt.Println("query templates observed (grouped by logical signature):")
	fmt.Println()
	var samples []string
	for _, row := range lt.Rows() {
		// Columns: Logical_Signature, N, Avg_Duration, Max_Duration, Sample.
		fmt.Printf("  %4s x%-4d avg=%8.1fus  %.60s\n",
			row[0].Str()[:4], row[1].Int(), row[2].Float()*1e6, row[4].Str())
		samples = append(samples, row[4].Str())
	}
	for _, want := range []string{"INSERT INTO accounts", "FROM accounts WHERE id =", "GROUP BY owner"} {
		if !slices.ContainsFunc(samples, func(s string) bool { return strings.Contains(s, want) }) {
			log.Fatalf("ByTemplate has no template matching %q", want)
		}
	}
}

func mustExec(sess *sqlcm.Session, sql string) {
	if _, err := sess.Exec(sql, nil); err != nil {
		log.Fatalf("%s: %v", sql, err)
	}
}
