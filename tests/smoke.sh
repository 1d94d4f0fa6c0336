#!/usr/bin/env bash
# Smoke test of the installed tagmon command: validate and run the shipped
# scenarios, generate traces, and check the exit code and message of each
# refused input.  Run it from the root of a checkout:
#
#   bash tests/smoke.sh
#
# Scratch files go to $RUNNER_TEMP, a new temporary directory by default.
# The shell options are those of a GitHub Actions bash step.
set -eo pipefail
RUNNER_TEMP=${RUNNER_TEMP:-$(mktemp -d)}
# expect_exit CODE NAME CMD...: run CMD with its stderr in
# $RUNNER_TEMP/NAME.err, show that, and fail unless CMD exits
# with CODE and prints no traceback
expect_exit() {
  want=$1 name=$2
  shift 2
  if "$@" 2> "$RUNNER_TEMP/$name.err"; then code=0; else code=$?; fi
  cat "$RUNNER_TEMP/$name.err"
  test "$code" -eq "$want"
  if grep -q Traceback "$RUNNER_TEMP/$name.err"; then exit 1; fi
}
# the import cost of each tagmon module (self and cumulative us),
# logged for comparison between runs; no timing is checked
python -X importtime -c "import tagmon.cli" 2>&1 \
    | grep -E "imported package|tagmon"
for s in alcohol_dry alcohol_gap alcohol_spike curfew; do
  tagmon validate "scenarios/$s.scenario"
done
tagmon run scenarios/curfew.scenario --out "$RUNNER_TEMP/out" \
    > "$RUNNER_TEMP/curfew.stdout"
printf '%s\n' \
    'entity PID-9: cycles=7 absent-signal=1 compliant=5 violation=1' \
    'notifications: 2' 'first violation: t=4740' 'exit status: 0' \
    > "$RUNNER_TEMP/curfew-stdout.expected"
diff "$RUNNER_TEMP/curfew-stdout.expected" "$RUNNER_TEMP/curfew.stdout"
# the seven nights of the night scan: compliant, violation on
# night 3 and absent-signal on night 5
p='curfew-presence'
c='curfew_start=1140;curfew_end=420;nights=7;status'
printf '%s\n' "1860|PID-9|$p|compliant|$c=compliant" \
    "3300|PID-9|$p|compliant|$c=compliant" \
    "4740|PID-9|$p|violation|$c=compliant" \
    "6180|PID-9|$p|compliant|$c=violation" \
    "7620|PID-9|$p|absent-signal|$c=violation" \
    "9060|PID-9|$p|compliant|$c=absent-signal" \
    "10500|PID-9|$p|compliant|$c=absent-signal" \
    > "$RUNNER_TEMP/curfew.expected"
diff "$RUNNER_TEMP/curfew.expected" "$RUNNER_TEMP/out/records.log"
# extended_dry runs from a copy: a generated trace left in the
# checkout would change what the tests below see
mkdir -p "$RUNNER_TEMP/ext/traces"
cp scenarios/extended_dry.scenario "$RUNNER_TEMP/ext/"
tagmon gen-trace --kind dry --minutes 143940 --seed 42 \
    --out "$RUNNER_TEMP/ext/traces/extended_dry.trace"
tagmon run "$RUNNER_TEMP/ext/extended_dry.scenario" \
    --out "$RUNNER_TEMP/ext/out" > "$RUNNER_TEMP/ext.stdout"
printf '%s\n' 'entity PID-7: cycles=300 green=300' \
    'notifications: 0' 'first violation: none' 'exit status: 0' \
    > "$RUNNER_TEMP/ext-stdout.expected"
diff "$RUNNER_TEMP/ext-stdout.expected" "$RUNNER_TEMP/ext.stdout"
# the same schedule over a trace with one spike at 10:00 on day 1:
# the 15:00 upload (t=900), whose window binds the cycle's t1/t2
# over the family, is the one red judgement
mkdir -p "$RUNNER_TEMP/spike/traces"
cp scenarios/extended_dry.scenario "$RUNNER_TEMP/spike/"
tagmon gen-trace --kind spike --minutes 143940 --seed 42 \
    --spike-at 10:00 --spike-value 0.0300 \
    --out "$RUNNER_TEMP/spike/traces/extended_dry.trace"
tagmon run "$RUNNER_TEMP/spike/extended_dry.scenario" \
    --out "$RUNNER_TEMP/spike/out" > "$RUNNER_TEMP/spike.stdout"
printf '%s\n' 'entity PID-7: cycles=300 green=299 red=1' \
    'notifications: 1' 'first violation: t=900' 'exit status: 0' \
    > "$RUNNER_TEMP/spike-stdout.expected"
diff "$RUNNER_TEMP/spike-stdout.expected" "$RUNNER_TEMP/spike.stdout"
echo '900|PID-7|record-breach|red|status=green->red' \
    > "$RUNNER_TEMP/spike-notifications.expected"
diff "$RUNNER_TEMP/spike-notifications.expected" \
    "$RUNNER_TEMP/spike/out/notifications.log"
# an invalid scenario (an over-long trace path) must exit 1 with a
# diagnostic, not a traceback
python -c "print('[entity A]\nsentence = 0,720,30,0.0200,0.0050\n'
                 'trace = ' + 't' * 5000)" > "$RUNNER_TEMP/bad.scenario"
expect_exit 1 bad tagmon validate "$RUNNER_TEMP/bad.scenario"
# a trace that cannot be written must exit 2, not a traceback
expect_exit 2 gen tagmon gen-trace --kind dry --minutes 10 \
    --out "$RUNNER_TEMP/missing/x.trace"
# a clock time that is not one is a usage error, exit 2
expect_exit 2 clock tagmon gen-trace --kind spike --minutes 100 \
    --spike-at 25:00 --spike-value 0.0500 \
    --out "$RUNNER_TEMP/clock.trace"
grep -q "argument --spike-at: bad clock time '25:00'" \
    "$RUNNER_TEMP/clock.err"
# a fault of the whole scenario prints as file: message, exit 1
: > "$RUNNER_TEMP/empty.scenario"
expect_exit 1 empty tagmon validate "$RUNNER_TEMP/empty.scenario"
test "$(cat "$RUNNER_TEMP/empty.err")" = \
    "$RUNNER_TEMP/empty.scenario: no entities declared"
# a mixed alcohol and curfew run, from a copy, under one rule that
# lists labels of both kinds; the expected lines are the logs of
# the shipped traces
mkdir -p "$RUNNER_TEMP/mixed"
cp scenarios/traces/alcohol_spike.trace \
    scenarios/traces/curfew_presence.trace \
    scenarios/traces/alcohol_dry.trace "$RUNNER_TEMP/mixed/"
printf '%s\n' '[entity PID-7]' 'sentence = 0,720,30,0.0200,0.0050' \
    'trace = alcohol_spike.trace' '[entity PID-9]' \
    'curfew = 19:00,07:00' 'nights = 7' \
    'trace = curfew_presence.trace' '[policy]' \
    'rule = breach: on red,violation,absent-signal set status' \
    > "$RUNNER_TEMP/mixed/mixed.scenario"
tagmon run "$RUNNER_TEMP/mixed/mixed.scenario" \
    --out "$RUNNER_TEMP/mixed/out"
printf '%s\n' '720|PID-7|breach|red|status=green->red' \
    '4740|PID-9|breach|violation|status=compliant->violation' \
    '7620|PID-9|breach|absent-signal|status=violation->absent-signal' \
    > "$RUNNER_TEMP/mixed/expected.log"
diff "$RUNNER_TEMP/mixed/expected.log" \
    "$RUNNER_TEMP/mixed/out/notifications.log"
# the same run on copies of its traces with \r\n line endings
# writes the same logs
mkdir -p "$RUNNER_TEMP/crlf"
for t in alcohol_spike curfew_presence; do
  sed 's/$/\r/' "scenarios/traces/$t.trace" \
      > "$RUNNER_TEMP/crlf/$t.trace"
  test "$(grep -c $'\r$' "$RUNNER_TEMP/crlf/$t.trace")" -eq \
      "$(wc -l < "scenarios/traces/$t.trace")"
done
cp "$RUNNER_TEMP/mixed/mixed.scenario" "$RUNNER_TEMP/crlf/"
tagmon run "$RUNNER_TEMP/crlf/mixed.scenario" \
    --out "$RUNNER_TEMP/crlf/out"
for log in records.log notifications.log; do
  diff "$RUNNER_TEMP/mixed/out/$log" "$RUNNER_TEMP/crlf/out/$log"
done
# nights on a sentence entity is a diagnostic, exit 1
printf '%s\n' '[entity A]' 'sentence = 0,720,30,0.0200,0.0050' \
    'nights = 7' 'trace = alcohol_dry.trace' \
    > "$RUNNER_TEMP/mixed/nights.scenario"
expect_exit 1 nights \
    tagmon validate "$RUNNER_TEMP/mixed/nights.scenario"
grep -q "entity A: nights applies to curfew entities only" \
    "$RUNNER_TEMP/nights.err"
# a malformed value on line 2,500 of a 3,000-line trace, past the
# first chunk the parser reads, is a diagnostic on that line, exit 1
python -c "
lines = [f'{t},0.0100' for t in range(3000)]
lines[2498] = '2498,0.010'
print('trace b decimal 0 3000', *lines, sep='\\n')
" > "$RUNNER_TEMP/mixed/long.trace"
printf '%s\n' '[entity A]' 'sentence = 0,720,30,0.0200,0.0050' \
    'trace = long.trace' > "$RUNNER_TEMP/mixed/long.scenario"
expect_exit 1 long tagmon validate "$RUNNER_TEMP/mixed/long.scenario"
grep -q "long.trace:2500: decimal '0.010' must have exactly 4 fractional digits" \
    "$RUNNER_TEMP/long.err"
# a tick has one spelling: '01' for tick 1 is a diagnostic, exit 1
printf '%s\n' 'trace b decimal 0 721' > "$RUNNER_TEMP/mixed/tick.trace"
python -c "print(*(f'{t:02d},0.0100' if t == 1 else f'{t},0.0100'
                   for t in range(721)), sep='\n')" \
    >> "$RUNNER_TEMP/mixed/tick.trace"
printf '%s\n' '[entity A]' 'sentence = 0,720,30,0.0200,0.0050' \
    'trace = tick.trace' > "$RUNNER_TEMP/mixed/tick.scenario"
expect_exit 1 tick tagmon validate "$RUNNER_TEMP/mixed/tick.scenario"
grep -q "tick.trace:3: tick '01' must be written '1'" \
    "$RUNNER_TEMP/tick.err"
# a reading has one spelling too: '00.0100' on line 2,500, past
# the first chunk, is a diagnostic on that line, exit 1
python -c "
lines = [f'{t},0.0100' for t in range(3000)]
lines[2498] = '2498,00.0100'
print('trace b decimal 0 3000', *lines, sep='\\n')
" > "$RUNNER_TEMP/mixed/zero.trace"
printf '%s\n' '[entity A]' 'sentence = 0,720,30,0.0200,0.0050' \
    'trace = zero.trace' > "$RUNNER_TEMP/mixed/zero.scenario"
expect_exit 1 zero tagmon validate "$RUNNER_TEMP/mixed/zero.scenario"
grep -q "zero.trace:2500: decimal '00.0100' must be written '0.0100'" \
    "$RUNNER_TEMP/zero.err"
# a tick written as a prefix of itself ('174' for 1749) on the
# last line of the first chunk the parser reads is a diagnostic
# on that line, exit 1
python -c "
lines = [f'{t},true' for t in range(3000)]
lines[1749] = '174,true'
print('trace b boolean 0 3000', *lines, sep='\\n')
" > "$RUNNER_TEMP/mixed/cut.trace"
printf '%s\n' '[entity A]' 'curfew = 19:00,07:00' 'nights = 1' \
    'trace = cut.trace' > "$RUNNER_TEMP/mixed/cut.scenario"
expect_exit 1 cut tagmon validate "$RUNNER_TEMP/mixed/cut.scenario"
grep -q "cut.trace:1751: tick 174 out of order (expected 1749)" \
    "$RUNNER_TEMP/cut.err"
# an integer option is an optional "-" and ASCII digits: '1_0' is
# a usage error, exit 2
expect_exit 2 minutes tagmon gen-trace --kind dry --minutes 1_0 \
    --out "$RUNNER_TEMP/minutes.trace"
grep -q "argument --minutes: invalid integer value: '1_0'" \
    "$RUNNER_TEMP/minutes.err"
test ! -e "$RUNNER_TEMP/minutes.trace"
# a second [policy] section is a format error, exit 1
printf '%s\n' '[entity A]' 'sentence = 0,720,30,0.0200,0.0050' \
    'trace = alcohol_dry.trace' '[policy]' \
    'rule = a: on red set status' '[policy]' \
    'rule = b: on red set status' \
    > "$RUNNER_TEMP/mixed/policy.scenario"
expect_exit 1 policy \
    tagmon validate "$RUNNER_TEMP/mixed/policy.scenario"
grep -q "policy.scenario:6: duplicate \[policy\] section" \
    "$RUNNER_TEMP/policy.err"
# a decimal is ASCII digits with an optional "-": a "+" in a
# sentence or in a spike value is a diagnostic, exit 1
printf '%s\n' '[entity A]' 'sentence = 0,720,30,+0.0200,0.0050' \
    'trace = alcohol_dry.trace' > "$RUNNER_TEMP/mixed/plus.scenario"
expect_exit 1 plus tagmon validate "$RUNNER_TEMP/mixed/plus.scenario"
grep -q "bad sentence" "$RUNNER_TEMP/plus.err"
expect_exit 1 spike tagmon gen-trace --kind spike --minutes 100 \
    --spike-at 0 --spike-value +0.0300 --out "$RUNNER_TEMP/plus.trace"
grep -q "not a fixed-point decimal" "$RUNNER_TEMP/spike.err"
test ! -e "$RUNNER_TEMP/plus.trace"
# an option of another kind is a fault, not ignored, exit 1
expect_exit 1 stray tagmon gen-trace --kind dry --minutes 5 \
    --gap 1 2 --out "$RUNNER_TEMP/stray.trace"
grep -q "gen-trace failed: --gap needs --kind gap" \
    "$RUNNER_TEMP/stray.err"
test ! -e "$RUNNER_TEMP/stray.trace"
# a gap outside the trace is refused before any reading is
# drawn, exit 1, with no trace written
expect_exit 1 far tagmon gen-trace --kind gap --minutes 1440000 \
    --gap 5 2 --out "$RUNNER_TEMP/far.trace"
echo 'gen-trace failed: gap [5, 2] outside [0, 1440000]' \
    | diff - "$RUNNER_TEMP/far.err"
test ! -e "$RUNNER_TEMP/far.trace"
# a clock time with a space around it is a usage error, exit 2
expect_exit 2 space tagmon gen-trace --kind spike --minutes 5 \
    --spike-at ' 00:03' --spike-value 0.0100 \
    --out "$RUNNER_TEMP/space.trace"
grep -q "argument --spike-at: bad clock time ' 00:03'" \
    "$RUNNER_TEMP/space.err"
# an integer trace is read by the same plain-line rule as the
# others: a tick out of order on line 2,500 is a diagnostic on
# that line, exit 1
python -c "
lines = [f'{t},{t % 7}' for t in range(3000)]
lines[2498] = '2499,6'
print('trace b integer 0 3000', *lines, sep='\\n')
" > "$RUNNER_TEMP/mixed/int.trace"
printf '%s\n' '[entity A]' 'sentence = 0,720,30,0.0200,0.0050' \
    'trace = int.trace' > "$RUNNER_TEMP/mixed/int.scenario"
expect_exit 1 int tagmon validate "$RUNNER_TEMP/mixed/int.scenario"
grep -q "int.trace:2500: tick 2499 out of order (expected 2498)" \
    "$RUNNER_TEMP/int.err"
# a reading longer than int's digit limit is refused on its line
python -c "
lines = [f'{t},{t % 7}' for t in range(3000)]
lines[2498] = '2498,' + '9' * 5000
print('trace b integer 0 3000', *lines, sep='\\n')
" > "$RUNNER_TEMP/mixed/int.trace"
expect_exit 1 digits \
    tagmon validate "$RUNNER_TEMP/mixed/int.scenario"
grep -q "int.trace:2500: not an integer: '999" \
    "$RUNNER_TEMP/digits.err"
# so is a decimal reading, by validate and by run alike
python -c "
lines = [f'{t},0.0100' for t in range(3000)]
lines[2498] = '2498,' + '9' * 5000 + '.0000'
print('trace b decimal 0 3000', *lines, sep='\\n')
" > "$RUNNER_TEMP/mixed/dec.trace"
printf '%s\n' '[entity A]' 'sentence = 0,720,30,0.0200,0.0050' \
    'trace = dec.trace' > "$RUNNER_TEMP/mixed/dec.scenario"
expect_exit 1 decdigits \
    tagmon validate "$RUNNER_TEMP/mixed/dec.scenario"
grep -q "dec.trace:2500: not a fixed-point decimal: '999" \
    "$RUNNER_TEMP/decdigits.err"
expect_exit 1 rundigits tagmon run "$RUNNER_TEMP/mixed/dec.scenario" \
    --out "$RUNNER_TEMP/rundigits"
grep -q "dec.trace:2500: not a fixed-point decimal: '999" \
    "$RUNNER_TEMP/rundigits.err"
test ! -e "$RUNNER_TEMP/rundigits"
# and a spike value past that limit, with no trace written
expect_exit 1 spikedigits tagmon gen-trace --kind spike \
    --minutes 10 --spike-at 3 \
    --spike-value "$(python -c "print('9' * 5000 + '.0')")" \
    --out "$RUNNER_TEMP/spikedigits.trace"
grep -q "gen-trace failed: not a fixed-point decimal" \
    "$RUNNER_TEMP/spikedigits.err"
test ! -e "$RUNNER_TEMP/spikedigits.trace"
# a log that cannot be moved into place (a directory named
# notifications.log) fails the run with exit 2, and the records.log
# moved before it is put back as it was
tagmon run scenarios/curfew.scenario --out "$RUNNER_TEMP/keep"
cp "$RUNNER_TEMP/keep/records.log" "$RUNNER_TEMP/keep.records"
rm "$RUNNER_TEMP/keep/notifications.log"
mkdir "$RUNNER_TEMP/keep/notifications.log"
expect_exit 2 keep tagmon run scenarios/alcohol_spike.scenario \
    --out "$RUNNER_TEMP/keep"
cmp "$RUNNER_TEMP/keep.records" "$RUNNER_TEMP/keep/records.log"
# diagnostics print in file order, so a [policy] section on top
# reports its rule first, and a fault in a trace is printed on its
# entity's line with the trace's own line; run reports what validate
# reports, exit 1, and writes no log
f="$RUNNER_TEMP/first.scenario"
printf '%s\n' '[policy]' 'rule = r: on purple set status' '' \
    '[entity A]' 'sentence = 0,2820,60,0.0200,0.0050' \
    'status = green' '# no trace' '' '[schedule]' \
    'uploads = 23:00,07:00' 'days = 2' '' '[entity B]' \
    'curfew = 19:00,07:00' 'nights = 1' 'trace = presence.trace' '' \
    '[entity C]' 'sentence = 0,2820,60,0.0200,0.0050' \
    'trace = refused.trace' > "$f"
printf '%s\n' 'trace b decimal 0 3' '0,0.0100' '1,0.010' '2,0.0100' \
    > "$RUNNER_TEMP/refused.trace"
expect_exit 1 first tagmon validate "$f"
c="$f:18: entity C: refused.trace:3: decimal '0.010' must have exactly"
printf '%s\n' \
    "$f:2: rule r: labels ['purple'] match no entity's judgements" \
    "$f:4: entity A: missing trace" \
    "$f:9: upload times must be strictly increasing: (1380, 420)" \
    "$f:13: entity B: [schedule] applies to sentence entities only" \
    "$c 4 fractional digits" > "$RUNNER_TEMP/first.expected"
diff "$RUNNER_TEMP/first.expected" "$RUNNER_TEMP/first.err"
expect_exit 1 first-run tagmon run "$f" --out "$RUNNER_TEMP/first-run"
diff "$RUNNER_TEMP/first.expected" "$RUNNER_TEMP/first-run.err"
test ! -e "$RUNNER_TEMP/first-run/records.log"
# nights or days so large that the last cycle's tick has more digits than
# str writes are a diagnostic on the entity's line, exit 1, with no logs
nines=$(python -c "import sys; print('9' * (sys.get_int_max_str_digits() - 1))")
printf '%s\n' '[entity A]' 'curfew = 19:00,07:00' "nights = $nines" \
    'trace = curfew_presence.trace' > "$RUNNER_TEMP/mixed/nights-huge.scenario"
expect_exit 1 nights-huge tagmon run "$RUNNER_TEMP/mixed/nights-huge.scenario" \
    --out "$RUNNER_TEMP/nights-huge"
echo "$RUNNER_TEMP/mixed/nights-huge.scenario:1: entity A: presence window" \
    "[0, 10501) does not cover nights [1140, a tick past int's digit limit]" \
    | diff - "$RUNNER_TEMP/nights-huge.err"
test ! -e "$RUNNER_TEMP/nights-huge/records.log"
printf '%s\n' '[entity A]' 'sentence = 0,720,30,0.0200,0.0050' \
    'trace = alcohol_dry.trace' '[schedule]' 'uploads = 07:00' \
    "days = $nines" > "$RUNNER_TEMP/mixed/days-huge.scenario"
expect_exit 1 days-huge tagmon run "$RUNNER_TEMP/mixed/days-huge.scenario" \
    --out "$RUNNER_TEMP/days-huge"
echo "$RUNNER_TEMP/mixed/days-huge.scenario:1: entity A: under [schedule]" \
    "the sentence must span 0 to the last upload, which days puts past" \
    "int's digit limit, got 0,720" | diff - "$RUNNER_TEMP/days-huge.err"
test ! -e "$RUNNER_TEMP/days-huge/records.log"
# a trace path that names a directory is never opened: validate and run
# say it is no regular file, exit 1, with no logs
mkdir "$RUNNER_TEMP/mixed/tracedir"
printf '%s\n' '[entity A]' 'sentence = 0,720,30,0.0200,0.0050' \
    'trace = tracedir' > "$RUNNER_TEMP/mixed/dir.scenario"
echo "$RUNNER_TEMP/mixed/dir.scenario:1: entity A: cannot read trace" \
    "tracedir: not a regular file" > "$RUNNER_TEMP/dir.expected"
expect_exit 1 dir tagmon validate "$RUNNER_TEMP/mixed/dir.scenario"
diff "$RUNNER_TEMP/dir.expected" "$RUNNER_TEMP/dir.err"
expect_exit 1 dir-run tagmon run "$RUNNER_TEMP/mixed/dir.scenario" \
    --out "$RUNNER_TEMP/dir-run"
diff "$RUNNER_TEMP/dir.expected" "$RUNNER_TEMP/dir-run.err"
test ! -e "$RUNNER_TEMP/dir-run/records.log"
