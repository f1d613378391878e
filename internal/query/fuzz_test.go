package query

import (
	"strings"
	"testing"
)

// FuzzParse drives arbitrary text through the full front end: parse,
// analyze and compile. Nothing here may panic; errors are the
// contract for bad input. The seed corpus covers every statement shape the
// grammar accepts (projections, predicates, spatial functions, aggregates,
// ORDER BY/LIMIT, set operations) plus near-miss malformed text.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT objid FROM tag",
		"SELECT * FROM photoobj WHERE r < 20",
		"SELECT objid, ra, dec FROM tag WHERE r < 21 AND u - g > 0.8",
		"SELECT objid FROM tag WHERE CIRCLE(185.0, 32.0, 15)",
		"SELECT objid FROM photoobj WHERE RECT(10, -5, 20, 5)",
		"SELECT COUNT(*) FROM tag WHERE class = 'GALAXY'",
		"SELECT SUM(r) FROM tag",
		"SELECT AVG(redshift) FROM specobj WHERE sn > 5",
		"SELECT MIN(r) FROM tag WHERE NOT (g < 15 OR r > 22)",
		"SELECT objid, r FROM tag ORDER BY r DESC LIMIT 10",
		"SELECT objid FROM tag WHERE flag('SATURATED')",
		"SELECT objid FROM tag WHERE sqrt(pow(u - g, 2)) < 1.5",
		"SELECT objid FROM tag WHERE r < 20 UNION SELECT objid FROM tag WHERE g < 20",
		"SELECT objid FROM tag INTERSECT SELECT objid FROM specobj",
		"SELECT objid FROM tag MINUS SELECT objid FROM tag WHERE r < 19",
		"(SELECT objid FROM tag) UNION (SELECT objid FROM tag)",
		"SELECT p.objid, s.z FROM photo p JOIN spec s ON p.objid = s.objid WHERE p.r < 18",
		"SELECT p.objid, s.redshift FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE p.u - p.g > s.redshift ORDER BY s.redshift DESC LIMIT 10",
		"SELECT COUNT(*) FROM photoobj p JOIN specobj s ON p.objid = s.objid",
		"SELECT photo.objid FROM photo JOIN spec ON photo.objid = spec.objid",
		"SELECT p.objid FROM photoobj p JOIN specobj s ON p.r = s.sn",
		"SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 0.5) WHERE a.objid < b.objid",
		"SELECT p.objid, t.objid FROM NEIGHBORS(photoobj p, tag t, 2)",
		"SELECT a.objid FROM NEIGHBORS(tag a, tag b, 1) WHERE a.r < 20 AND b.r < 20 AND CIRCLE(185, 32, 30)",
		"SELECT t.objid FROM tag t WHERE t.r < 20 ORDER BY t.r",
		"SELECT p.objid FROM photo p JOIN spec s",
		"SELECT p.objid FROM photo p JOIN spec s ON p.objid < s.objid",
		"SELECT x.objid FROM photo p JOIN spec s ON p.objid = s.objid",
		"SELECT class FROM photo p JOIN spec s ON p.objid = s.objid",
		"SELECT a.objid FROM NEIGHBORS(tag a, tag a, 1)",
		"SELECT a.objid FROM NEIGHBORS(tag a, tag b, -1)",
		"SELECT p. FROM photo p",
		"SELECT p..objid FROM photo p",
		"SELECT",
		"SELECT FROM WHERE",
		"SELECT objid FROM nosuchtable",
		"SELECT objid FROM tag WHERE r <",
		"SELECT objid FROM tag WHERE 'unterminated",
		"SELECT objid FROM tag WHERE ((((r < 20",
		"SELECT objid FROM tag LIMIT -1",
		"SELECT objid FROM tag ORDER BY",
		"\x00\xff SELECT",
		strings.Repeat("(", 1000),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			if stmt != nil {
				t.Fatalf("Parse returned both a statement and error %v", err)
			}
			return
		}
		// A parsed statement must survive the rest of the pipeline without
		// panicking; compile errors are fine.
		prep, err := PrepareStmt(stmt)
		if err != nil {
			return
		}
		prep.Columns()
	})
}
