# rule: atomicity-violation
# The fix for bad_check_then_act: re-read the shared value once the
# call returns; the redefinition kills the stale path.


def advance(self):
    current = self.partition_scn
    self.net.invoke(self.relay_pull, current)
    current = self.partition_scn
    if current < self.high_water:
        self.apply(current)
