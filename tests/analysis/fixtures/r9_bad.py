"""R9 violations: models taken from the warm solver past the encoder's check."""


def raw_probe(encoder, assumptions):
    return encoder.solver.solve(assumptions) is not None


class ExtensionSearchSpace:
    def selection_consistent(self, assumptions):
        return self._solver.solve(assumptions) is not None


class Decoder:
    def _solve(self, assumptions):  # the blessed name, in the wrong class
        return self.solver.solve(assumptions)
