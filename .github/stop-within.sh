#!/bin/sh
# Usage: sh .github/stop-within.sh PID
#
# Send SIGTERM to PID, a background job of the calling shell, and wait
# up to 10 s for it to exit.  The caller then reaps it with `wait PID`,
# which returns its exit status at once.  A process still running after
# 10 s is killed and the script fails with a message, so a shutdown
# that hangs fails its CI step within seconds instead of at the job
# timeout.  Until the caller reaps it, an exited job is a zombie, which
# `kill -0` still finds; so this reads the process state instead.
pid=$1
kill -TERM "$pid" 2>/dev/null
i=0
while [ "$i" -lt 100 ]; do
  case "$(ps -o stat= -p "$pid")" in
    "" | Z*) exit 0 ;;
  esac
  sleep 0.1
  i=$((i + 1))
done
echo "process $pid still running 10 s after SIGTERM" >&2
kill -KILL "$pid" 2>/dev/null
exit 1
