#!/usr/bin/env python
"""Cross-component misconfiguration detection (paper §9, future work).

"The idea of integrating environment information can be naturally
extended to deal with cross-component misconfigurations: the
configuration of other components can be seen as one kind of environment
factors."

Because our corpus images run a full LAMP-style stack, EnCore's template
instantiation already crosses application boundaries: PHP's MySQL client
settings must agree with the MySQL server's, and MySQL's log files must
stay inaccessible to the Apache worker user.  This example breaks the
PHP↔MySQL socket agreement and shows the cross-component rule firing.

Run:  python examples/cross_component.py
"""

from repro import EnCore
from repro.corpus import Ec2CorpusGenerator
from repro.corpus.generator import _extract_value


def main() -> None:
    images = Ec2CorpusGenerator(seed=21).generate(121)
    training, held_out = images[:120], images[120]

    encore = EnCore()
    model = encore.train(training)

    cross = [
        rule for rule in model.rules
        if rule.attribute_a.split(":", 1)[0] != rule.attribute_b.split(":", 1)[0]
    ]
    print(f"{len(cross)} cross-component rules learned, e.g.:")
    for rule in cross[:6]:
        print(f"  {rule}")

    # Break the PHP↔MySQL agreement: PHP's client socket points somewhere
    # other than the MySQL server's socket.
    broken = held_out.copy("cross-broken")
    php_text = broken.config_file("php").text
    if _extract_value(php_text, "mysql.default_socket") is None:
        php_text += "mysql.default_socket = /var/lib/mysql/mysql.sock\n"
        broken.replace_config_text("php", php_text)
    old = broken.set_config_value(
        "php", "mysql.default_socket", "/tmp/wrong-mysql.sock"
    )
    mysql_socket = _extract_value(broken.config_file("mysql").text, "socket")
    print(f"\nInjected: php mysql.default_socket = /tmp/wrong-mysql.sock "
          f"(server socket: {mysql_socket}, was {old})")

    report = encore.check(broken)
    cross_warnings = [
        w for w in report.warnings
        if w.rule is not None
        and w.rule.attribute_a.split(":", 1)[0] != w.rule.attribute_b.split(":", 1)[0]
    ]
    print(f"\n{len(cross_warnings)} cross-component violation(s) reported:")
    for warning in cross_warnings[:4]:
        print(f"  {warning}")
    rank = report.rank_of_attribute("mysql.default_socket")
    print(f"\nRoot cause ranked #{rank} of {len(report.warnings)}.")


if __name__ == "__main__":
    main()
