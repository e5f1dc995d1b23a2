# rule: atomicity-violation
# Check-then-act across the network: the SCN is read before the relay
# round-trip and drives the branch after it.  Another replica may have
# advanced it while the call was in flight.


def advance(self):
    current = self.partition_scn
    self.net.invoke(self.relay_pull, current)
    if current < self.high_water:  # BAD
        self.apply(current)
