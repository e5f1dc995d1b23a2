# rule: atomicity-violation
# Deciding *before* the network call is fine: nothing has had a chance
# to go stale yet.


def ping_if_leader(self):
    role = self.role
    if role == "leader":
        self.net.send(self.peer_name, "ping")
    return role
