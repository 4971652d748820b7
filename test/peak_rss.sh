#!/bin/sh
# peak_rss.sh CMD [ARG...]: runs CMD with its stdout discarded and
# prints its peak resident set size in kB, the last VmHWM read from
# /proc/PID/status while it runs, polled every 50 ms.  Works on any
# Linux, with no /usr/bin/time.  Exits with CMD's status.
"$@" > /dev/null &
pid=$!
peak=0
while :; do
  line=$(awk '/^State:/ { s = $2 } /^VmHWM:/ { h = $2 } END { print s, h }' \
    "/proc/$pid/status" 2> /dev/null) || break
  set -- $line
  # gone, or a zombie (whose status has no VmHWM) waiting to be reaped
  if [ -z "$1" ] || [ "$1" = Z ]; then break; fi
  if [ -n "$2" ]; then peak=$2; fi
  sleep 0.05
done
wait "$pid"
status=$?
echo "$peak"
exit "$status"
