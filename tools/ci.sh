#!/bin/sh
# The repo gate: build (warnings are errors, see the dune env stanza),
# run every test suite, then turn the static analyzers on the repo's
# own example policies.  `lint` exits 1 on any error-severity
# diagnostic; `analyze` does the same, so a policy drift that the
# semantic layer can prove wrong fails CI here.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

# Everything below runs the binaries the build above produced, never
# `dune exec`: a second dune process (say, a client started while a
# backgrounded server is still starting) can race the first on
# _build/.lock.
secview() { _build/default/bin/secview_cli.exe "$@"; }
bench_diff() { _build/default/tools/bench_diff/main.exe "$@"; }
POL=examples/policies

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
secview gen --dtd "$POL/hospital.dtd" > "$TMP/doc.xml"

# Each example policy also passes the strict gate `query --strict` runs
# on the service it builds (exit 2 with the lint errors otherwise); the
# answer is not checked here, so any ward will do.
echo "== lint example policies"
for spec in "$POL"/*.spec; do
  echo "-- lint $spec"
  secview lint --dtd "$POL/hospital.dtd" --spec "$spec"
  secview query --dtd "$POL/hospital.dtd" --spec "$spec" \
    --doc "$TMP/doc.xml" --bind wardNo=6 --strict '//patient/name' > /dev/null
  echo "-- query --strict $spec: the strict gate passes"
done

echo "== analyze example policy fleet"
secview analyze --dtd "$POL/hospital.dtd" --fleet \
  --group nurse="$POL/nurse.spec" \
  --group nurse2="$POL/nurse2.spec" \
  --group junior="$POL/junior.spec"

# Capture -> replay cycle: record a workload over the example fleet,
# re-execute it, and require every answer to digest-match its capture.
echo "== capture -> replay smoke"
# A comparison of two empty answers proves nothing: each smoke that
# compares answers over the generated document first requires the
# direct answer to be non-empty.
nonempty() {
  test -s "$1" || { echo "$1: empty answer, nothing to compare" >&2; exit 1; }
}
# The nurse policy shows a department when one of its own patients is
# in ward $wardNo: bind the ward of the generated document's first such
# patient, read through an all-accessible (empty) policy.
: > "$TMP/all.spec"
WARD=$(secview query --dtd "$POL/hospital.dtd" --spec "$TMP/all.spec" \
  --doc "$TMP/doc.xml" '//dept/patientInfo/patient/wardNo' \
  | head -1 | sed 's/<[^>]*>//g')
test -n "$WARD"
secview query --dtd "$POL/hospital.dtd" --spec "$POL/nurse.spec" \
  --doc "$TMP/doc.xml" --bind wardNo="$WARD" --capture "$TMP/cap.jsonl" \
  '//patient/name' '//patient' '//patient/wardNo' > "$TMP/cap.out"
nonempty "$TMP/cap.out"
secview replay "$TMP/cap.jsonl" --dtd "$POL/hospital.dtd" \
  --spec "$POL/nurse.spec" --doc doc="$TMP/doc.xml" \
  --out "$TMP/replay.json" | grep -q ' 0 mismatch(es)'
echo "-- replay: 0 mismatches over $(wc -l < "$TMP/cap.out") answer lines (ward $WARD)"

# A malformed query is a typed error on every verb that parses one:
# exit 2 with the server's "parse error at N" text, never an uncaught
# exception.
echo "== malformed-query smoke"
for verb in query rewrite optimize explain lint analyze; do
  case $verb in
    query) set -- --spec "$POL/nurse.spec" --doc "$TMP/doc.xml" ;;
    explain) set -- --spec "$POL/nurse.spec" --doc "$TMP/doc.xml" user ;;
    optimize) set -- ;;
    *) set -- --spec "$POL/nurse.spec" ;;
  esac
  code=0
  secview "$verb" --dtd "$POL/hospital.dtd" "$@" '//patient[' \
    > /dev/null 2> "$TMP/malformed.err" || code=$?
  if [ "$code" -ne 2 ] || ! grep -q 'parse error at' "$TMP/malformed.err" \
    || grep -q 'Fatal error' "$TMP/malformed.err"; then
    echo "malformed-query smoke: $verb exited $code:" >&2
    cat "$TMP/malformed.err" >&2
    exit 1
  fi
done
echo "-- malformed queries: exit 2 with a parse error on every verb"

# A truncated DTD or document is a typed error on every verb that loads
# one: exit 2 with a "secview: FILE: ..." line, never an uncaught
# exception; serve stops before it creates its socket, and query, update
# and serve before they open their audit log and capture.
echo "== malformed-input smoke"
head -c 120 "$POL/hospital.dtd" > "$TMP/truncated.dtd"
head -c 40 "$TMP/doc.xml" > "$TMP/truncated.xml"
malformed_input() {
  file=$1
  shift
  code=0
  timeout 30 _build/default/bin/secview_cli.exe "$@" \
    > /dev/null 2> "$TMP/input.err" || code=$?
  if [ "$code" -ne 2 ] || ! grep -qF "secview: $file: " "$TMP/input.err" \
    || grep -q 'Fatal error' "$TMP/input.err" \
    || [ -e "$TMP/input.sock" ] || [ -e "$TMP/input-audit.jsonl" ] \
    || [ -e "$TMP/input-cap.jsonl" ]; then
    echo "malformed-input smoke: secview $* exited $code:" >&2
    cat "$TMP/input.err" >&2
    exit 1
  fi
}
S="$POL/nurse.spec"
SINKS="--audit-log $TMP/input-audit.jsonl --capture $TMP/input-cap.jsonl"
for verb in derive graph audit lint analyze optimize gen query serve; do
  case $verb in
    derive | audit | lint | analyze) set -- --spec "$S" ;;
    optimize) set -- '//patient' ;;
    query) set -- --spec "$S" --doc "$TMP/doc.xml" $SINKS '//patient' ;;
    serve)
      set -- --spec "$S" --doc d="$TMP/doc.xml" --socket "$TMP/input.sock" \
        $SINKS
      ;;
    *) set -- ;;
  esac
  malformed_input "$TMP/truncated.dtd" "$verb" --dtd "$TMP/truncated.dtd" "$@"
done
X="$TMP/truncated.xml"
for verb in query explain materialize validate annotate metrics update \
  serve replay; do
  case $verb in
    query) set -- --spec "$S" --doc "$X" $SINKS '//patient' ;;
    metrics) set -- --spec "$S" --doc "$X" '//patient' ;;
    explain) set -- --spec "$S" --doc "$X" user '//patient' ;;
    validate) set -- --doc "$X" ;;
    update) set -- --spec "$S" --doc "$X" $SINKS user 'delete //patient' ;;
    serve) set -- --spec "$S" --doc d="$X" --socket "$TMP/input.sock" $SINKS ;;
    replay) set -- "$TMP/cap.jsonl" --spec "$S" --doc d="$X" ;;
    *) set -- --spec "$S" --doc "$X" ;;
  esac
  malformed_input "$X" "$verb" --dtd "$POL/hospital.dtd" "$@"
done
echo "-- malformed inputs: exit 2 naming the file on every verb"

# A remote verb with no server to talk to, or with a server that hangs
# up before replying, is a typed error: "secview: ..." and exit 2,
# never an uncaught exception.  The hang-up side is a listener that
# accepts each connection and closes it at once.
echo "== remote-verb error smoke"
python3 - "$TMP/hang.sock" "$TMP/hang.port" <<'PY' &
import os, select, socket, sys
u = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
u.bind(sys.argv[1])
u.listen(16)
t = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
t.bind(("127.0.0.1", 0))
t.listen(16)
with open(sys.argv[2] + ".tmp", "w") as f:
    f.write(str(t.getsockname()[1]))
os.rename(sys.argv[2] + ".tmp", sys.argv[2])
while True:
    ready = select.select([u, t], [], [], 60)[0]
    if not ready:
        break
    for s in ready:
        s.accept()[0].close()
PY
HANG=$!
for _ in $(seq 100); do [ -s "$TMP/hang.port" ] && break; sleep 0.05; done
HPORT=$(cat "$TMP/hang.port")
remote_error() {
  code=0
  secview "$@" > /dev/null 2> "$TMP/remote.err" || code=$?
  if [ "$code" -ne 2 ] || ! grep -q '^secview: ' "$TMP/remote.err" \
    || grep -q 'Fatal error' "$TMP/remote.err"; then
    echo "remote-verb smoke: secview $* exited $code:" >&2
    cat "$TMP/remote.err" >&2
    exit 1
  fi
}
for sock in "$TMP/missing.sock" "$TMP/hang.sock"; do
  remote_error client --socket "$sock" --ping
  remote_error flight --socket "$sock"
  remote_error top --socket "$sock" --iterations 1
  remote_error metrics --socket "$sock"
  remote_error replay "$TMP/cap.jsonl" --socket "$sock"
done
remote_error metrics --tcp "$HPORT"
remote_error metrics --scrape "127.0.0.1:$HPORT"
kill "$HANG"
wait "$HANG" 2>/dev/null || true
remote_error metrics --tcp "$HPORT"
remote_error metrics --scrape "127.0.0.1:$HPORT"
echo "-- remote verbs: exit 2 with a message, no server or a hang-up alike"

# Mixed read/write capture -> replay: a query, an admitted update, and
# a query over the updated document, accumulated into one capture
# (open_file appends), then replayed in captured order from the
# original document — the replayed write must rebuild the
# byte-identical version for the final query's digest to match.
echo "== mixed capture -> replay smoke"
printf 'write regular bill replace\nwrite trial bill replace\n' \
  > "$TMP/billing_rw.spec"
secview query --dtd "$POL/hospital.dtd" --spec "$TMP/billing_rw.spec" \
  --doc "$TMP/doc.xml" --capture "$TMP/mixed.jsonl" \
  '//patient//bill' > /dev/null
secview update --dtd "$POL/hospital.dtd" --spec "$TMP/billing_rw.spec" \
  --doc "$TMP/doc.xml" --capture "$TMP/mixed.jsonl" \
  --out "$TMP/doc2.xml" user \
  'replace //patient//bill with <bill>1</bill>' > /dev/null
secview query --dtd "$POL/hospital.dtd" --spec "$TMP/billing_rw.spec" \
  --doc "$TMP/doc2.xml" --capture "$TMP/mixed.jsonl" \
  '//patient//bill' > /dev/null
secview replay "$TMP/mixed.jsonl" --dtd "$POL/hospital.dtd" \
  --spec "$TMP/billing_rw.spec" --doc doc="$TMP/doc.xml" \
  | grep -q ' 0 mismatch(es)'
echo "-- mixed replay: 0 mismatches"

# Served answers, on one domain (the read worker, the write
# coordinator and every connection thread are threads of the runtime's
# domain) and on two (real OCaml domains, one pipeline session each):
# the server must answer exactly what the single-threaded pipeline
# answers, the workload captured through it must replay digest-clean
# against the live server, and every captured request must also be in
# the audit log and the flight recorder — the three sinks are
# projections of one request record, written from worker domains.  The
# one-shot `query --audit-log` writes the same record: each of its
# request records must agree with the served ones for the same query
# on what was asked, what ran, and how it ended.  Each server runs
# over the generated document and over one whose text needs XML and
# JSON escaping (ampersands, angle brackets, quotes, a backslash, a
# tab, a newline, a control character, non-ASCII text), which the
# worker renders and writes into its reply lines.
cat > "$TMP/esc.xml" <<'XML'
<hospital>
  <dept>
    <clinicalTrial><patientInfo><patient><name>Trial &amp; "Error"</name><wardNo>6</wardNo><treatment><trial><bill>&lt;0&gt;</bill></trial></treatment></patient></patientInfo><test>blood</test></clinicalTrial>
    <patientInfo>
      <patient><name>Amp &amp; Co &lt;b&gt; "q" 'a' back\slash&#9;tab&#10;newline&#1;control</name><wardNo>6</wardNo><treatment><regular><bill>12</bill><medication>Zo&#235; 日本 &#x1F600;</medication></regular></treatment></patient>
      <patient><name>\"pre-escaped\" \u0041 \n</name><wardNo>6</wardNo><treatment><trial><bill>&amp;amp;</bill></trial></treatment></patient>
    </patientInfo>
    <staffInfo><staff><nurse><name>N&amp;N</name><wardNo>6</wardNo></nurse></staff></staffInfo>
  </dept>
</hospital>
XML
for DOMAINS in 1 2; do
  for DOC in doc esc; do
    echo "== serve smoke: $DOMAINS domain(s), $DOC.xml"
    R="$TMP/$DOMAINS-$DOC"
    case $DOC in doc) W=$WARD ;; esc) W=6 ;; esac
    secview serve --dtd "$POL/hospital.dtd" --spec "$POL/nurse.spec" \
      --doc doc="$TMP/$DOC.xml" --socket "$TMP/ci.sock" --domains "$DOMAINS" \
      --capture "$R.cap.jsonl" --flight 16 \
      --audit-log "$R.audit.jsonl" 2> "$R.serve.log" &
    SRV=$!
    secview client --socket "$TMP/ci.sock" --wait 5 --group user \
      --bind wardNo="$W" '//patient/name' '//patient/wardNo' '//patient' \
      > "$R.served.out"
    secview query --dtd "$POL/hospital.dtd" --spec "$POL/nurse.spec" \
      --doc "$TMP/$DOC.xml" --bind wardNo="$W" --audit-log "$R.qaudit.jsonl" \
      '//patient/name' '//patient/wardNo' '//patient' > "$R.direct.out"
    nonempty "$R.direct.out"
    cmp "$R.served.out" "$R.direct.out"
    echo "-- answers match the direct pipeline"
    secview replay "$R.cap.jsonl" --socket "$TMP/ci.sock" \
      | grep -q ' 0 mismatch(es)'
    echo "-- capture -> replay: 0 mismatches"
    secview flight --socket "$TMP/ci.sock" --json > "$R.flight.json"
    secview client --socket "$TMP/ci.sock" --shutdown
    wait $SRV
    grep -o '"rid":"[^"]*"' "$R.cap.jsonl" | sort -u > "$R.rids"
    test -s "$R.rids"
    while read -r rid; do
      for sink in "$R.audit.jsonl" "$R.flight.json"; do
        grep -qF "$rid" "$sink" || { echo "$rid missing from $sink"; exit 1; }
      done
    done < "$R.rids"
    echo "-- sinks: every captured rid is audited and in flight"
    python3 - "$R.qaudit.jsonl" "$R.audit.jsonl" <<'PY'
import json, sys
def requests(path):
    with open(path) as f:
        return [r for r in map(json.loads, f) if r["type"] == "request"]
cli, served = requests(sys.argv[1]), requests(sys.argv[2])
if len(cli) != 3:
    sys.exit("query --audit-log: wanted 3 request records, got %d" % len(cli))
for c in cli:
    same = [s for s in served if s["query"] == c["query"]]
    if not same:
        sys.exit("no served request record for " + c["query"])
    for s in same:
        for k in ("query", "status", "results", "translated"):
            if s[k] != c[k]:
                sys.exit("%s vs %s disagree on %s: %r vs %r"
                         % (c["rid"], s["rid"], k, c[k], s[k]))
PY
    echo "-- one audit schema: query --audit-log agrees with the served records"
  done
done
for DOMAINS in 1 2; do
  grep -qF 'Amp &amp; Co &lt;b&gt; "q"' "$TMP/$DOMAINS-esc.served.out"
done
echo "-- escaped text reached the clients"

# A client that sends requests and hangs up without reading the replies
# costs only its own connection: the server must survive twenty of
# them (a reply written to a closed socket fails with EPIPE rather
# than killing the process), then drain and exit 0.  The server runs
# with --strict: the example nurse policy passes the strict gate.
echo "== hang-up smoke"
secview serve --dtd "$POL/hospital.dtd" --spec "$POL/nurse.spec" --strict \
  --doc doc="$TMP/doc.xml" --socket "$TMP/h.sock" 2> "$TMP/hserve.log" &
HSRV=$!
secview client --socket "$TMP/h.sock" --wait 5 --group user \
  --bind wardNo=6 '//patient/name' > /dev/null
python3 - "$TMP/h.sock" <<'PY'
import socket, sys
for _ in range(20):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(sys.argv[1])
    s.sendall(b'{"cmd":"hello","group":"user"}\n'
              b'{"cmd":"query","query":"//patient","bind":{"wardNo":"6"}}\n')
    s.close()
PY
secview client --socket "$TMP/h.sock" --shutdown
wait $HSRV
echo "-- hang-ups survived; server (--strict, nurse.spec) drained with exit 0"

# A hostile line: one request of 1,000,000 opening brackets fits under
# the 1 MiB line cap, and the JSON decoder refuses it at its nesting
# bound.  The reply must be a bad_request within 5 s; then a new
# connection must get the direct pipeline's answer, and the server
# must drain and exit 0.
echo "== hostile-line smoke"
secview serve --dtd "$POL/hospital.dtd" --spec "$POL/nurse.spec" \
  --doc doc="$TMP/doc.xml" --socket "$TMP/n.sock" 2> "$TMP/nserve.log" &
NSRV=$!
secview client --socket "$TMP/n.sock" --wait 5 --group user \
  --bind wardNo="$WARD" '//patient/name' > /dev/null
python3 - "$TMP/n.sock" <<'PY'
import socket, sys, time
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.settimeout(5)
t0 = time.monotonic()
s.sendall(b"[" * 1000000 + b"\n")
reply = b""
while not reply.endswith(b"\n"):
    chunk = s.recv(4096)
    if not chunk:
        sys.exit("hostile line: the server hung up without replying")
    reply += chunk
if time.monotonic() - t0 > 5:
    sys.exit("hostile line: the reply took over 5 s")
if b'"code":"bad_request"' not in reply:
    sys.exit("hostile line: wanted bad_request, got %r" % reply[:200])
s.close()
PY
# A query nesting 400,000 qualifiers (800 KB of "a[") is a query_error
# within 5 s: the query parser stops at its nesting bound, on the
# connection thread's admission check and in the worker alike.
python3 - "$TMP/n.sock" <<'PY'
import socket, sys, time
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.settimeout(5)
t0 = time.monotonic()
s.sendall(b'{"cmd":"hello","group":"user"}\n'
          b'{"cmd":"query","query":"' + b"a[" * 400000 + b'"}\n')
reply = b""
while reply.count(b"\n") < 2:
    chunk = s.recv(4096)
    if not chunk:
        sys.exit("hostile query: the server hung up without replying")
    reply += chunk
if time.monotonic() - t0 > 5:
    sys.exit("hostile query: the reply took over 5 s")
last = reply.split(b"\n")[1]
if b'"code":"query_error"' not in last or b"nesting deeper than 512" not in last:
    sys.exit("hostile query: wanted a query_error at the bound, got %r" % last[:200])
s.close()
PY
secview client --socket "$TMP/n.sock" --group user --bind wardNo="$WARD" \
  '//patient/name' > "$TMP/n.served.out"
secview query --dtd "$POL/hospital.dtd" --spec "$POL/nurse.spec" \
  --doc "$TMP/doc.xml" --bind wardNo="$WARD" '//patient/name' \
  > "$TMP/n.direct.out"
nonempty "$TMP/n.direct.out"
cmp "$TMP/n.served.out" "$TMP/n.direct.out"
secview client --socket "$TMP/n.sock" --shutdown
wait $NSRV
echo "-- bad_request for a million brackets, query_error for 800 KB of 'a[', then a correct answer; drained with exit 0"

# Served writes: a chain of admitted updates (insert, replace, delete)
# through a 2-domain server, then one write DTD conformance must refuse
# and one visibility preservation must refuse, then a final query.
# The answer must byte-match the same chain applied one-shot with
# `update --out` and `query`, and the capture must replay clean from
# the original document.
echo "== served-write smoke"
cat > "$TMP/w0.xml" <<'XML'
<hospital>
  <dept>
    <clinicalTrial><patientInfo/><test>blood</test></clinicalTrial>
    <patientInfo>
      <patient><name>Bob</name><wardNo>6</wardNo><treatment><regular><bill>120</bill><medication>abc</medication></regular></treatment></patient>
    </patientInfo>
    <staffInfo><staff><nurse><name>Nina</name><wardNo>6</wardNo></nurse></staff></staffInfo>
  </dept>
  <dept>
    <clinicalTrial><patientInfo/><test>blood</test></clinicalTrial>
    <patientInfo>
      <patient><name>Dave</name><wardNo>7</wardNo><treatment><trial><bill>500</bill></trial></treatment></patient>
    </patientInfo>
    <staffInfo/>
  </dept>
</hospital>
XML
printf '%s\n' 'hospital dept [*/patient/wardNo = $wardNo]' \
  'write patientInfo patient all' 'write patient name insert' \
  'write regular bill replace' > "$TMP/ward_rw.spec"
INS='insert into //dept/patientInfo <patient><name>Zed</name><wardNo>6</wardNo><treatment><regular><bill>7</bill><medication>ibu</medication></regular></treatment></patient>'
REP='replace //patient[name = "Bob"]//bill with <bill>150</bill>'
DEL='delete //patient[name = "Zed"]'
BAD_DTD='insert into //patient[name = "Bob"] <name>Robert</name>'
BAD_FLIP='delete //patient[wardNo = "6"]'
secview serve --dtd "$POL/hospital.dtd" --spec "$TMP/ward_rw.spec" \
  --doc doc="$TMP/w0.xml" --socket "$TMP/w.sock" --domains 2 \
  --capture "$TMP/wcap.jsonl" 2> "$TMP/wserve.log" &
WSRV=$!
secview client --socket "$TMP/w.sock" --wait 5 --group user --bind wardNo=6 \
  --update "$INS" --update "$REP" --update "$DEL" > "$TMP/wupdates.out"
# refused writes: the client exits 1 and the reply names the reason
refused() {
  if secview client --socket "$TMP/w.sock" --group user --bind wardNo=6 \
    --update "$1" 2> "$TMP/refused.err"; then
    echo "served-write smoke: '$1' was admitted" >&2
    exit 1
  fi
  grep -q "$2" "$TMP/refused.err"
}
refused "$BAD_DTD" '"code":"invalid_update","error":"result does not conform to the DTD'
refused "$BAD_FLIP" '"error":"update would change the visibility of existing content"'
secview client --socket "$TMP/w.sock" --group user --bind wardNo=6 \
  '//patient' '//staff' > "$TMP/wserved.out"
# A served explain after the writes runs on the version the last
# admitted write published ("update ok: … version A -> B") and counts
# the answers the query above returned.
secview client --socket "$TMP/w.sock" --send '{"cmd":"hello","group":"user"}' \
  --send '{"cmd":"explain","query":"//patient","bind":{"wardNo":"6"}}' \
  > "$TMP/wexplain.out"
last_version=$(tail -n 1 "$TMP/wupdates.out" | sed -n 's/^update ok: .* -> \([0-9]*\)$/\1/p')
explained_version=$(grep -o '"doc_version":[0-9]*' "$TMP/wexplain.out" | cut -d: -f2)
explained=$(grep -o '"results":[0-9]*' "$TMP/wexplain.out" | cut -d: -f2)
answered=$(grep -c '^<patient>' "$TMP/wserved.out")
if [ -z "$last_version" ] || [ "$explained_version" != "$last_version" ] \
  || [ "$explained" != "$answered" ]; then
  echo "served-write smoke: explain after the writes read doc_version" \
    "'$explained_version' and $explained result(s); want version" \
    "'$last_version' and $answered result(s)" >&2
  exit 1
fi
echo "-- served explain after the writes: version $last_version, $answered result(s)"
secview client --socket "$TMP/w.sock" --shutdown
wait $WSRV
one_shot() {
  secview update --dtd "$POL/hospital.dtd" --spec "$TMP/ward_rw.spec" \
    --doc "$TMP/$1" --bind wardNo=6 --out "$TMP/$2" user "$3" > /dev/null
}
one_shot w0.xml w1.xml "$INS"
one_shot w1.xml w2.xml "$REP"
one_shot w2.xml w3.xml "$DEL"
secview query --dtd "$POL/hospital.dtd" --spec "$TMP/ward_rw.spec" \
  --doc "$TMP/w3.xml" --bind wardNo=6 '//patient' '//staff' > "$TMP/wdirect.out"
cmp "$TMP/wserved.out" "$TMP/wdirect.out"
echo "-- served write chain matches the one-shot chain"
secview replay "$TMP/wcap.jsonl" --dtd "$POL/hospital.dtd" \
  --spec "$TMP/ward_rw.spec" --doc doc="$TMP/w0.xml" \
  | grep -q ' 0 mismatch(es)'
echo "-- served-write capture -> replay: 0 mismatches"

# Runtime health: a 2-domain server with the Runtime_events consumer
# on must expose per-domain gc_pause_seconds series and one counter
# per cache fact on its HTTP scrape endpoint, answer byte-identically
# to the direct pipeline, and render the top dashboard's gc section.
echo "== runtime-events serve smoke"
secview serve --dtd "$POL/hospital.dtd" --spec "$POL/nurse.spec" \
  --doc doc="$TMP/doc.xml" --socket "$TMP/rt.sock" --domains 2 \
  --runtime-events --metrics-port 19384 2> "$TMP/rt.log" &
RSRV=$!
secview client --socket "$TMP/rt.sock" --wait 5 --group user \
  --bind wardNo="$WARD" '//patient/name' '//patient/wardNo' '//patient' \
  > "$TMP/rt_served.out"
nonempty "$TMP/2-doc.direct.out"
cmp "$TMP/rt_served.out" "$TMP/2-doc.direct.out"
echo "-- runtime-events answers match the direct pipeline"
secview metrics --scrape 127.0.0.1:19384 > "$TMP/rt_scrape.txt"
DOMAINS_SEEN=$(grep -o '^secview_gc_pause_seconds_d[0-9]*' "$TMP/rt_scrape.txt" \
  | sort -u | wc -l)
if [ "$DOMAINS_SEEN" -lt 2 ]; then
  echo "runtime smoke: wanted gc_pause_seconds for >= 2 domains, saw $DOMAINS_SEEN" >&2
  exit 1
fi
echo "-- per-domain gc_pause_seconds series for $DOMAINS_SEEN domains"
# The sessions' counters are the only count of cache traffic: the
# scrape (this server has a tracer, as every --metrics-port server
# does) names a cache miss once, as pipeline.cache.miss.<group>, and
# carries no second pipeline.stats.* copy.
if ! grep -q '^secview_pipeline_cache_miss_' "$TMP/rt_scrape.txt" \
  || grep -q 'secview_pipeline_stats_' "$TMP/rt_scrape.txt"; then
  echo "runtime smoke: wanted a secview_pipeline_cache_miss_ family and no secview_pipeline_stats_ family" >&2
  grep 'secview_pipeline_' "$TMP/rt_scrape.txt" >&2
  exit 1
fi
echo "-- one pipeline counter per cache fact in the scrape"
# A pipeline's status is its last command's, so top's own exit status
# and stderr are kept aside and checked: grep -q stops reading at its
# first match, and top must then end cleanly on the closed pipe.
{ secview top --socket "$TMP/rt.sock" --interval 0.2 --iterations 2 \
    2>"$TMP/top.err" && TOP=0 || TOP=$?
  echo "$TOP" >"$TMP/top.status"; } | grep -q 'domain(s) live'
if [ "$(cat "$TMP/top.status")" != 0 ] || [ -s "$TMP/top.err" ]; then
  echo "runtime smoke: top exited $(cat "$TMP/top.status"), stderr:" >&2
  cat "$TMP/top.err" >&2
  exit 1
fi
echo "-- top renders the gc section and exits 0 with an empty stderr"
secview client --socket "$TMP/rt.sock" --shutdown
wait $RSRV

# The paper's experiments: Q1-Q4 forms, the containment test's
# approximation quality (which aborts on a claimed containment a
# sampled instance refutes), A5/A6 and a quick Table 1, whose naive,
# rewrite and optimize answers must agree.  Nothing else runs
# bench/main.exe, so this keeps its modes from rotting.
echo "== paper experiments smoke"
_build/default/bench/main.exe \
  --forms --approx --xmark --index --table1 --quick > "$TMP/paper.txt"
if grep '^!! approaches disagree' "$TMP/paper.txt" >&2; then exit 1; fi
echo "-- bench/main.exe: forms, approx, xmark, index, table1 ran"

# The benchmark's oracle: perfbench's program checks every served
# answer and write receipt (read, mixed) and every Table 1 cell
# (table1) it times against the in-process pipeline, so one second of
# each workload, untraced and traced, must end in a result line that
# reads "correct": true and "failed": 0.  It runs the dev build above;
# perfbench/run.py would rebuild the tree in the release profile.  The
# served workloads put their sockets under .secbench/.
echo "== benchmark oracle smoke"
mkdir -p .secbench
for workload in read mixed table1; do
  for trace in 0 1; do
    _build/default/perfbench/secbench.exe --workload "$workload" --seed 1 \
      --seconds 1 --trace "$trace" > "$TMP/secbench.out"
    result=$(tail -n 1 "$TMP/secbench.out")
    case $result in
      *'"correct": true'*'"failed": 0,'*) ;;
      *)
        echo "benchmark oracle: $workload --trace $trace: $result" >&2
        exit 1
        ;;
    esac
  done
done
echo "-- secbench: read, mixed and table1 correct with 0 failures, traced and untraced"

# The regression gate itself is gated: its self-test, then a diff of a
# report against itself (which must never regress).
echo "== bench_diff"
bench_diff --self-test
bench_diff --quiet \
  "$TMP/replay.json" "$TMP/replay.json"
echo "-- bench_diff: self-diff clean"

# The write path must not tax readers: BENCH_PR8.json's read-only pass
# is recorded at the same JSON paths as BENCH_PR7.json's, so this
# holds the read path across the update-subsystem PR.  The threshold
# is generous because the committed files are recorded on whatever
# machine ran each PR — this gate catches gross regressions, not
# scheduler noise.
if [ -f BENCH_PR7.json ] && [ -f BENCH_PR8.json ]; then
  bench_diff \
    --threshold 60 --floor 2 BENCH_PR7.json BENCH_PR8.json
  echo "-- bench_diff: read path held across PR 8"
fi

# Same gate across the domain-parallel PR: BENCH_PR9.json's
# single-domain read-only pass is recorded at the PR8 paths
# (recorder.off.*), so the Service/Session split plus the domain
# execution model must not tax a 1-domain server's read path.
if [ -f BENCH_PR8.json ] && [ -f BENCH_PR9.json ]; then
  bench_diff \
    --threshold 60 --floor 2 BENCH_PR8.json BENCH_PR9.json
  echo "-- bench_diff: read path held across PR 9"
fi

echo "== ci.sh: all green"
